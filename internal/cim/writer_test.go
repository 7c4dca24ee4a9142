package cim

import (
	"fmt"
	"sort"
	"strings"
)

// WriteMOF serializes a repository back to MOF text: classes in
// dependency order (superclasses first), then instances in declaration
// order. The output round-trips through Parse, which the MOF fuzzer and
// the round-trip tests check the parser against.
func (r *Repository) WriteMOF() string {
	var b strings.Builder
	b.WriteString("// CIM resource model — generated by elba/internal/cim\n\n")

	// Classes in an order that satisfies inheritance: repeatedly emit
	// classes whose superclass is already out.
	emitted := map[string]bool{}
	names := r.ClassNames()
	for len(emitted) < len(names) {
		progressed := false
		for _, name := range names {
			if emitted[name] {
				continue
			}
			c := r.classes[name]
			if c.Super != "" && !emitted[c.Super] {
				continue
			}
			writeClass(&b, c)
			emitted[name] = true
			progressed = true
		}
		if !progressed {
			// Defensive: a cycle would already have been rejected at
			// load; emit the rest alphabetically rather than loop.
			for _, name := range names {
				if !emitted[name] {
					writeClass(&b, r.classes[name])
					emitted[name] = true
				}
			}
		}
	}
	for _, in := range r.instances {
		writeInstance(&b, in)
	}
	return b.String()
}

func writeClass(b *strings.Builder, c *Class) {
	if c.Super != "" {
		fmt.Fprintf(b, "class %s : %s {\n", c.Name, c.Super)
	} else {
		fmt.Fprintf(b, "class %s {\n", c.Name)
	}
	for _, p := range c.Properties {
		typ, name := p.Type, p.Name
		if strings.HasSuffix(typ, "[]") {
			typ = strings.TrimSuffix(typ, "[]")
			name += "[]"
		}
		if p.Default != nil {
			fmt.Fprintf(b, "\t%s %s = %s;\n", typ, name, p.Default.String())
		} else {
			fmt.Fprintf(b, "\t%s %s;\n", typ, name)
		}
	}
	b.WriteString("};\n\n")
}

func writeInstance(b *strings.Builder, in *Instance) {
	fmt.Fprintf(b, "instance of %s {\n", in.Class)
	// Deterministic property order: Name first, then alphabetical.
	props := make([]string, 0, len(in.Props))
	for name := range in.Props {
		if name != "Name" {
			props = append(props, name)
		}
	}
	sort.Strings(props)
	if _, ok := in.Props["Name"]; ok {
		props = append([]string{"Name"}, props...)
	}
	for _, name := range props {
		v := in.Props[name]
		fmt.Fprintf(b, "\t%s = %s;\n", name, v.String())
	}
	b.WriteString("};\n\n")
}

// ClassNames lists registered classes, sorted.
func (r *Repository) ClassNames() []string {
	names := make([]string, 0, len(r.classes))
	for n := range r.classes {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
