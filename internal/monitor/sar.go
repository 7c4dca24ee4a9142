package monitor

import (
	"fmt"
	"strconv"
	"strings"
)

// Record is one parsed sysstat output line.
type Record struct {
	// TimeSec is the sample time in seconds from midnight.
	TimeSec float64
	// Host is the monitored hostname.
	Host string
	// Family is the metric family: cpu, mem, net, disk.
	Family string
	// Device is the sampled device ("all", "eth0", "sda", or "").
	Device string
	// Values holds the family's numeric columns.
	Values []float64
}

// ParseFile parses a host's sysstat output back into records. Tests of
// this package and of the trial archive read monitor files back with it.
func ParseFile(text string) ([]Record, error) {
	var out []Record
	for lineNo, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			return nil, fmt.Errorf("monitor: line %d: malformed record %q", lineNo+1, line)
		}
		t, err := parseStamp(fields[0])
		if err != nil {
			return nil, fmt.Errorf("monitor: line %d: %w", lineNo+1, err)
		}
		r := Record{TimeSec: t, Host: fields[1], Family: fields[2]}
		rest := fields[3:]
		switch r.Family {
		case "cpu", "net", "disk":
			r.Device = rest[0]
			rest = rest[1:]
			// Utilization rows carry a literal "%util" marker after the
			// device ("disk sda %util 42.00"); fold it into the family so
			// they parse distinctly from the ops/byte-rate rows.
			if len(rest) > 0 && rest[0] == "%util" {
				r.Family += "-util"
				rest = rest[1:]
			}
		}
		for _, f := range rest {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, fmt.Errorf("monitor: line %d: bad value %q", lineNo+1, f)
			}
			r.Values = append(r.Values, v)
		}
		if len(r.Values) == 0 {
			return nil, fmt.Errorf("monitor: line %d: record has no values", lineNo+1)
		}
		out = append(out, r)
	}
	return out, nil
}

func parseStamp(s string) (float64, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return 0, fmt.Errorf("bad timestamp %q", s)
	}
	var hms [3]int
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil {
			return 0, fmt.Errorf("bad timestamp %q", s)
		}
		hms[i] = v
	}
	return float64(hms[0]*3600 + hms[1]*60 + hms[2]), nil
}
