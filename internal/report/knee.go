package report

// KneeDetector finds the knee of an ascending throughput-vs-population
// series online, one point at a time, as the sweep's trials commit. The
// paper locates the knee of the throughput curve after the fact, from
// the full table; the detector reproduces that reading incrementally:
// the first segment's slope is the series' linear regime, and the knee
// is the first point whose segment slope collapses below
// kneeSlopeFraction of it (or goes negative — throughput actually
// falling). Detection is a pure function of the observed prefix, so a
// replayed result log flags exactly the knees the live fold flagged.
type KneeDetector struct {
	points     int
	prevUsers  int
	prevThru   float64
	baseSlope  float64
	foundUsers int
}

// kneeSlopeFraction is the slope-collapse threshold as a fraction of the
// first segment's slope: a segment gaining throughput at less than a
// quarter of the series' initial rate is past the knee.
const kneeSlopeFraction = 0.25

// Observe feeds the next (users, throughput) point of the ascending
// series and reports whether this point is the knee. It fires at most
// once per series; later points report false. Points that do not extend
// the population axis (replays, replicas at the same population) are
// ignored.
func (k *KneeDetector) Observe(users int, throughput float64) bool {
	if k.points == 0 {
		k.points = 1
		k.prevUsers, k.prevThru = users, throughput
		return false
	}
	if users <= k.prevUsers {
		return false
	}
	slope := (throughput - k.prevThru) / float64(users-k.prevUsers)
	k.prevUsers, k.prevThru = users, throughput
	k.points++
	if k.points == 2 {
		k.baseSlope = slope
		return false
	}
	if k.foundUsers != 0 {
		return false
	}
	if slope < 0 || (k.baseSlope > 0 && slope < kneeSlopeFraction*k.baseSlope) {
		k.foundUsers = users
		return true
	}
	return false
}

// Knee reports the knee population, or 0 while none is detected.
func (k *KneeDetector) Knee() int { return k.foundUsers }
