package sim

// resJob sequences one request's legs across a station's contended
// resources — network link, then CPU, then disk — accumulating the
// per-leg queue waits and service times into one aggregated completion,
// so callers (the n-tier router, the RAIDb broadcaster, the tracer) see
// a single hop exactly as they would from a bare CPU station. Jobs are
// pooled on the station, keeping the multi-resource path allocation-free
// in steady state.
type resJob struct {
	s     *Station
	done  jobDone
	cpu   float64
	disk  float64
	stage int8 // 0 = network leg, 1 = CPU leg, 2 = disk leg
	wait  float64
	svc   float64
}

func (j *resJob) jobFinished(ok bool, wait, service float64) {
	j.wait += wait
	j.svc += service
	if !ok {
		// Only the CPU station can fail; surface it immediately with
		// whatever time the earlier legs already spent.
		j.finish(false)
		return
	}
	switch j.stage {
	case 0: // network leg done → CPU
		j.stage = 1
		j.s.submit(j.cpu, j)
	case 1: // CPU leg done → disk, if demanded
		if j.disk > 0 && j.s.disk != nil {
			j.stage = 2
			j.s.disk.submit(j.disk, j)
			return
		}
		j.finish(true)
	default: // disk leg done
		j.finish(true)
	}
}

func (j *resJob) finish(ok bool) {
	done, wait, svc := j.done, j.wait, j.svc
	j.done = nil
	j.s.rpool = append(j.s.rpool, j)
	done.jobFinished(ok, wait, svc)
}

// AttachDisk binds a disk device to the station's node. Requests
// submitted with a disk demand queue on it after CPU service.
//
// A device is a one-server deterministic station whose speed converts
// demand units to seconds of service: a speed factor against the
// reference spindle for a disk (demand in reference-disk seconds), bytes
// per second for a link (demand in bytes). A disk at 0.64× the reference
// bandwidth serves the same demand 1.56× slower, and a 100 Mbps link
// moves a payload ten times slower than a gigabit one. Deterministic
// service never draws from the kernel's random stream, so configurations
// without disk or network demands keep their event and random sequences.
func (s *Station) AttachDisk(d *Station) { s.disk = d }

// AttachNet binds an ingress-link device (see AttachDisk) to the
// station's node. Requests submitted with a payload size queue on it
// before CPU service.
func (s *Station) AttachNet(d *Station) { s.net = d }

// Disk reports the attached disk device (nil when none).
func (s *Station) Disk() *Station { return s.disk }

// Net reports the attached network-link device (nil when none).
func (s *Station) Net() *Station { return s.net }

// submitRes offers a job demanding cpu seconds (at the reference
// frequency), disk seconds (at the reference disk), and netBytes of link
// payload. Legs the request does not demand — or the station has no
// device for — are skipped; a request with neither disk nor network
// demand takes the exact historical submit path, so zero-demand
// configurations stay event- and allocation-identical.
func (s *Station) submitRes(cpu, disk, netBytes float64, done jobDone) {
	netLeg := netBytes > 0 && s.net != nil
	diskLeg := disk > 0 && s.disk != nil
	if !netLeg && !diskLeg {
		s.submit(cpu, done)
		return
	}
	var j *resJob
	if n := len(s.rpool); n > 0 {
		j = s.rpool[n-1]
		s.rpool = s.rpool[:n-1]
	} else {
		j = &resJob{s: s}
	}
	j.done = done
	j.cpu = cpu
	j.disk = disk
	j.wait, j.svc = 0, 0
	if netLeg {
		j.stage = 0
		s.net.submit(netBytes, j)
		return
	}
	j.stage = 1
	s.submit(cpu, j)
}

// SubmitRes is the exported form of submitRes for callers outside the
// package (tests, ablation benches).
func (s *Station) SubmitRes(cpu, disk, netBytes float64, done Completion) {
	s.submitRes(cpu, disk, netBytes, completionFunc(done))
}
