package experiment

import (
	"fmt"

	"elba/internal/bottleneck"
	"elba/internal/spec"
)

// ScaleOutOptions parameterize the paper's §V.A iterative strategy.
type ScaleOutOptions struct {
	// LoadStep is the user increment per iteration (paper: 250-user
	// increments per added app server).
	LoadStep int
	// MaxUsers bounds the explored workload.
	MaxUsers int
	// MaxApp and MaxDB bound the topology (paper: 12 app, 3 db).
	MaxApp, MaxDB int
	// SLOms is the mean response-time objective that triggers scaling.
	SLOms float64
}

// DefaultScaleOutOptions mirror the paper's experiment envelope.
var DefaultScaleOutOptions = ScaleOutOptions{
	LoadStep: 250,
	MaxUsers: 2900,
	MaxApp:   12,
	MaxDB:    3,
	SLOms:    1000,
}

// minImprovementPct is the response-time improvement below which adding
// a server is judged useless and the other tier is tried (paper: adding
// DB servers "makes very little difference" until the DB becomes the
// bottleneck).
const minImprovementPct = 5

// StepAction describes what the controller did after observing a trial.
type StepAction string

// Controller actions.
const (
	ActionIncreaseLoad StepAction = "increase-load"
	ActionAddAppServer StepAction = "add-app-server"
	ActionAddDBServer  StepAction = "add-db-server"
	ActionStop         StepAction = "stop"
)

// Step records one iteration of the scale-out loop.
type Step struct {
	// Topology and Users locate the trial.
	Topology spec.Topology
	Users    int
	// AvgRTms is the observed mean response time.
	AvgRTms float64
	// Completed is false for failed trials.
	Completed bool
	// Verdict is the bottleneck diagnosis.
	Verdict bottleneck.Verdict
	// Action is what the controller decided next.
	Action StepAction
	// Note explains the decision.
	Note string
}

// ScaleOut runs the paper's observation-driven scale-out loop: increase
// the workload until the SLO is violated, diagnose the bottleneck tier
// from the observed utilization, add one server to that tier, and repeat.
// When adding a server fails to improve response time, the other tier is
// grown instead ("this is an indication of a different bottleneck in the
// system", §V.B). The loop starts at 1-1-1 and stops at the workload or
// topology bounds. Every trial runs at the low end of e's write ratio
// range, as RunTransientAt does.
func (r *Runner) ScaleOut(e *spec.Experiment, opts ScaleOutOptions) ([]Step, error) {
	if opts.LoadStep <= 0 {
		opts.LoadStep = DefaultScaleOutOptions.LoadStep
	}
	if opts.MaxUsers <= 0 {
		opts.MaxUsers = DefaultScaleOutOptions.MaxUsers
	}
	if opts.MaxApp <= 0 {
		opts.MaxApp = DefaultScaleOutOptions.MaxApp
	}
	if opts.MaxDB <= 0 {
		opts.MaxDB = DefaultScaleOutOptions.MaxDB
	}
	if opts.SLOms <= 0 {
		opts.SLOms = DefaultScaleOutOptions.SLOms
	}

	topo := spec.Topology{Web: 1, App: 1, DB: 1}
	users := opts.LoadStep
	var steps []Step
	var lastRT float64
	var lastAction StepAction
	var lastTier string

	// The loop is bounded by the topology and workload envelope; each
	// iteration either raises load or grows a tier, so it terminates.
	for iter := 0; iter < 200; iter++ {
		out, err := r.RunTrialAt(e, topo, users, e.Workload.WriteRatioPct.Lo)
		if err != nil {
			return steps, err
		}
		res := out.Result
		verdict := bottleneck.Detect(res, bottleneck.DefaultThresholds)
		step := Step{
			Topology:  topo,
			Users:     users,
			AvgRTms:   res.AvgRTms,
			Completed: res.Completed,
			Verdict:   verdict,
		}

		// Did the last server addition actually help? If not, the
		// bottleneck is elsewhere: grow the other tier.
		if lastAction == ActionAddAppServer || lastAction == ActionAddDBServer {
			impr := bottleneck.Improvement(lastRT, res.AvgRTms)
			if res.Completed && impr < minImprovementPct {
				switch {
				case lastTier == "app" && topo.DB < opts.MaxDB:
					step.Action = ActionAddDBServer
					step.Note = fmt.Sprintf("adding an app server improved RT only %.1f%%; trying the db tier", impr)
					steps = append(steps, step)
					lastRT, lastAction, lastTier = res.AvgRTms, step.Action, "db"
					topo.DB++
					continue
				case lastTier == "db" && topo.App < opts.MaxApp:
					step.Action = ActionAddAppServer
					step.Note = fmt.Sprintf("adding a db server improved RT only %.1f%%; trying the app tier", impr)
					steps = append(steps, step)
					lastRT, lastAction, lastTier = res.AvgRTms, step.Action, "app"
					topo.App++
					continue
				default:
					step.Action = ActionStop
					step.Note = "server additions no longer improve response time"
					steps = append(steps, step)
					return steps, nil
				}
			}
		}

		sloOK := res.Completed && res.AvgRTms <= opts.SLOms
		switch {
		case sloOK && users+opts.LoadStep <= opts.MaxUsers:
			step.Action = ActionIncreaseLoad
			step.Note = fmt.Sprintf("RT %.0f ms within SLO %.0f ms", res.AvgRTms, opts.SLOms)
			users += opts.LoadStep
		case sloOK:
			step.Action = ActionStop
			step.Note = fmt.Sprintf("workload bound %d users reached within SLO", opts.MaxUsers)
			steps = append(steps, step)
			return steps, nil
		default:
			// SLO violated (or trial failed): grow the diagnosed tier.
			tier := verdict.Tier
			if tier == "sessions" {
				tier = "app" // more app servers add session capacity
			}
			switch {
			case tier == "db" && topo.DB < opts.MaxDB:
				step.Action = ActionAddDBServer
				step.Note = verdict.Reason
				topo.DB++
			case (tier == "app" || tier == "none" || tier == "web") && topo.App < opts.MaxApp:
				// "none" can happen right at the knee; the app tier is
				// the first suspect in an n-tier web application.
				step.Action = ActionAddAppServer
				step.Note = verdict.Reason
				topo.App++
			case tier == "db" || topo.App >= opts.MaxApp:
				step.Action = ActionStop
				step.Note = fmt.Sprintf("topology bound reached at %s with %s", topo, verdict.Reason)
				steps = append(steps, step)
				return steps, nil
			default:
				step.Action = ActionStop
				step.Note = "no tier left to grow"
				steps = append(steps, step)
				return steps, nil
			}
			lastTier = "app"
			if step.Action == ActionAddDBServer {
				lastTier = "db"
			}
		}
		steps = append(steps, step)
		lastRT = res.AvgRTms
		lastAction = step.Action
	}
	return steps, fmt.Errorf("experiment: scale-out loop did not converge")
}
