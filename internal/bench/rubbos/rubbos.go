// Package rubbos models the RUBBoS bulletin-board benchmark (Rice
// University Bulletin Board System, a Slashdot-style news site) used in
// the paper's Section IV.C: 24 interaction states, a read-only mix and a
// submission mix with a tunable write ratio, and a database-heavy demand
// profile — the paper identifies the database server as RUBBoS's
// bottleneck.
//
// Unlike RUBiS, the two standard mixes differ in their *read* behaviour
// too: the read-only mix concentrates on story and comment pages, which
// carry heavy database demand, while the submission mix spends time on
// lightweight forms between writes. This is why the paper's Figure 4
// shows the read-only setting reaching its bottleneck at a much lower
// workload than the 85/15 read/write mix.
package rubbos

import (
	"fmt"

	"elba/internal/bench"
	"elba/internal/sim"
)

// ThinkTime is the client emulator's mean think time in seconds.
const ThinkTime = 7.0

// DefaultWriteRatio is the submission mix's write fraction (15%).
const DefaultWriteRatio = 0.15

// Reference per-class demand targets at 3 GHz (DESIGN.md §3). RUBBoS's
// front tier (Apache+PHP) is deliberately light; the database carries the
// load. The read targets differ per mix: the read-only mix's pages are
// heavier.
const (
	webDemand = 0.0004
	readApp   = 0.0012
	writeApp  = 0.0008

	readOnlyReadDB   = 0.00064 // 3.2 ms effective on the 600 MHz Emulab DB node
	submissionReadDB = 0.00034 // 1.7 ms effective
	writeDB          = 0.00070 // 3.5 ms effective
)

type state struct {
	name      string
	write     bool
	dbWeight  float64
	appWeight float64
	reply     int
	// nextRO and nextSub are successor weights under the read-only and
	// submission mixes; a nil nextRO means the state is unreachable in
	// the read-only mix (forms and write flows).
	nextRO  map[string]float64
	nextSub map[string]float64
}

// The 24 RUBBoS interaction states. Six are database writers.
var rubbosStates = []state{
	{name: "StoriesOfTheDay", dbWeight: 1.2, appWeight: 1.0, reply: 9400,
		nextRO:  map[string]float64{"ViewStory": 6, "OlderStories": 2, "BrowseCategories": 2},
		nextSub: map[string]float64{"ViewStory": 4, "SubmitStoryPage": 2, "BrowseCategories": 2, "RegisterPage": 1, "AuthorLogin": 1}},
	{name: "RegisterPage", dbWeight: 0.2, appWeight: 0.5, reply: 2100,
		nextSub: map[string]float64{"RegisterUser": 8, "StoriesOfTheDay": 2}},
	{name: "RegisterUser", write: true, dbWeight: 0.8, appWeight: 1.0, reply: 1800,
		nextSub: map[string]float64{"StoriesOfTheDay": 10}},
	{name: "BrowseCategories", dbWeight: 0.7, appWeight: 0.8, reply: 4600,
		nextRO:  map[string]float64{"BrowseStoriesByCategory": 9, "StoriesOfTheDay": 1},
		nextSub: map[string]float64{"BrowseStoriesByCategory": 9, "StoriesOfTheDay": 1}},
	{name: "BrowseStoriesByCategory", dbWeight: 1.3, appWeight: 1.0, reply: 8200,
		nextRO:  map[string]float64{"ViewStory": 7, "BrowseCategories": 2, "OlderStories": 1},
		nextSub: map[string]float64{"ViewStory": 6, "BrowseCategories": 2, "SubmitStoryPage": 2}},
	{name: "OlderStories", dbWeight: 1.6, appWeight: 1.1, reply: 10400,
		nextRO:  map[string]float64{"ViewStory": 7, "OlderStories": 2, "StoriesOfTheDay": 1},
		nextSub: map[string]float64{"ViewStory": 6, "OlderStories": 2, "StoriesOfTheDay": 2}},
	{name: "ViewStory", dbWeight: 2.0, appWeight: 1.2, reply: 16800,
		nextRO:  map[string]float64{"ViewComment": 5, "ViewStory": 2, "StoriesOfTheDay": 2, "SearchInStories": 1},
		nextSub: map[string]float64{"ViewComment": 3, "PostCommentPage": 3, "StoriesOfTheDay": 2, "ModeratePage": 1}},
	{name: "ViewComment", dbWeight: 1.7, appWeight: 1.1, reply: 9600,
		nextRO:  map[string]float64{"ViewStory": 4, "ViewComment": 3, "ViewUserInfo": 2, "StoriesOfTheDay": 1},
		nextSub: map[string]float64{"ViewStory": 4, "PostCommentPage": 3, "ViewUserInfo": 2}},
	{name: "PostCommentPage", dbWeight: 0.4, appWeight: 0.6, reply: 3100,
		nextSub: map[string]float64{"StoreComment": 9, "ViewStory": 1}},
	{name: "StoreComment", write: true, dbWeight: 1.0, appWeight: 1.0, reply: 1700,
		nextSub: map[string]float64{"ViewStory": 6, "StoriesOfTheDay": 4}},
	{name: "SubmitStoryPage", dbWeight: 0.3, appWeight: 0.6, reply: 2600,
		nextSub: map[string]float64{"StoreStory": 9, "StoriesOfTheDay": 1}},
	{name: "StoreStory", write: true, dbWeight: 1.2, appWeight: 1.0, reply: 1900,
		nextSub: map[string]float64{"StoriesOfTheDay": 8, "ViewStory": 2}},
	{name: "AcceptStoryPage", dbWeight: 0.6, appWeight: 0.7, reply: 4100,
		nextSub: map[string]float64{"AcceptStory": 6, "RejectStory": 3, "ReviewStories": 1}},
	{name: "AcceptStory", write: true, dbWeight: 1.1, appWeight: 1.0, reply: 1600,
		nextSub: map[string]float64{"ReviewStories": 6, "StoriesOfTheDay": 4}},
	{name: "RejectStory", write: true, dbWeight: 0.7, appWeight: 0.9, reply: 1500,
		nextSub: map[string]float64{"ReviewStories": 6, "StoriesOfTheDay": 4}},
	{name: "ReviewStories", dbWeight: 1.1, appWeight: 0.9, reply: 7300,
		nextSub: map[string]float64{"AcceptStoryPage": 7, "StoriesOfTheDay": 3}},
	{name: "AuthorLogin", dbWeight: 0.3, appWeight: 0.5, reply: 1900,
		nextSub: map[string]float64{"AuthorTasks": 9, "StoriesOfTheDay": 1}},
	{name: "AuthorTasks", dbWeight: 0.5, appWeight: 0.7, reply: 3400,
		nextSub: map[string]float64{"ReviewStories": 6, "ModeratePage": 3, "StoriesOfTheDay": 1}},
	{name: "ModeratePage", dbWeight: 0.6, appWeight: 0.7, reply: 3800,
		nextSub: map[string]float64{"StoreModerateLog": 8, "ViewComment": 2}},
	{name: "StoreModerateLog", write: true, dbWeight: 0.9, appWeight: 1.0, reply: 1500,
		nextSub: map[string]float64{"ViewComment": 5, "StoriesOfTheDay": 5}},
	{name: "SearchInStories", dbWeight: 1.8, appWeight: 1.1, reply: 8900,
		nextRO:  map[string]float64{"ViewStory": 6, "SearchInStories": 2, "SearchInComments": 2},
		nextSub: map[string]float64{"ViewStory": 6, "SearchInComments": 2, "StoriesOfTheDay": 2}},
	{name: "SearchInComments", dbWeight: 1.9, appWeight: 1.1, reply: 8700,
		nextRO:  map[string]float64{"ViewComment": 6, "SearchInStories": 2, "StoriesOfTheDay": 2},
		nextSub: map[string]float64{"ViewComment": 6, "SearchInUsers": 2, "StoriesOfTheDay": 2}},
	{name: "SearchInUsers", dbWeight: 1.4, appWeight: 1.0, reply: 5600,
		nextRO:  map[string]float64{"ViewUserInfo": 7, "StoriesOfTheDay": 3},
		nextSub: map[string]float64{"ViewUserInfo": 7, "StoriesOfTheDay": 3}},
	{name: "ViewUserInfo", dbWeight: 0.9, appWeight: 0.8, reply: 4400,
		nextRO:  map[string]float64{"StoriesOfTheDay": 5, "ViewStory": 5},
		nextSub: map[string]float64{"StoriesOfTheDay": 5, "ViewStory": 5}},
}

func buildStates() []sim.Interaction {
	out := make([]sim.Interaction, len(rubbosStates))
	for i, s := range rubbosStates {
		out[i] = sim.Interaction{
			Name:         s.name,
			Write:        s.write,
			AppDemand:    s.appWeight,
			DBDemand:     s.dbWeight,
			WebDemand:    1,
			RequestBytes: 380,
			ReplyBytes:   s.reply,
		}
	}
	return out
}

func buildMatrix(sub bool) (*bench.TransitionMatrix, error) {
	states := buildStates()
	index := make(map[string]int, len(states))
	for i, s := range states {
		index[s.Name] = i
	}
	rows := make([][]float64, len(states))
	for i, s := range rubbosStates {
		next := s.nextRO
		if sub {
			next = s.nextSub
		}
		row := make([]float64, len(states))
		if len(next) == 0 {
			// Unreachable under this mix: route back to the home page so
			// the matrix stays stochastic; stationary mass will be zero.
			row[index["StoriesOfTheDay"]] = 1
		}
		for name, w := range next {
			j, ok := index[name]
			if !ok {
				return nil, fmt.Errorf("rubbos: state %s references unknown successor %s", s.name, name)
			}
			row[j] = w
		}
		rows[i] = row
	}
	return bench.NewTransitionMatrix(states, rows)
}

// NewReadOnly builds the 100%-read mix (Figure 4's darker series).
func NewReadOnly() (*bench.Profile, error) {
	m, err := buildMatrix(false)
	if err != nil {
		return nil, err
	}
	// The read-only matrix must be pure reads by construction.
	if wf := m.WriteFraction(); wf > 0 {
		return nil, fmt.Errorf("rubbos: read-only matrix has write mass %g", wf)
	}
	err = bench.Calibrate(m, bench.DemandTargets{
		Web: webDemand, ReadApp: readApp, WriteApp: writeApp,
		ReadDB: readOnlyReadDB, WriteDB: writeDB,
	})
	if err != nil {
		return nil, err
	}
	return bench.NewProfile("rubbos/read-only", m, ThinkTime)
}

// NewSubmission builds the submission mix with the given write ratio
// (0 < w <= 0.5; the standard mix is 15%).
func NewSubmission(writeRatio float64) (*bench.Profile, error) {
	if writeRatio <= 0 || writeRatio > 0.5 {
		return nil, fmt.Errorf("rubbos: submission write ratio %g outside (0, 0.5]", writeRatio)
	}
	base, err := buildMatrix(true)
	if err != nil {
		return nil, err
	}
	m, err := base.Reweight(writeRatio)
	if err != nil {
		return nil, err
	}
	err = bench.Calibrate(m, bench.DemandTargets{
		Web: webDemand, ReadApp: readApp, WriteApp: writeApp,
		ReadDB: submissionReadDB, WriteDB: writeDB,
	})
	if err != nil {
		return nil, err
	}
	name := fmt.Sprintf("rubbos/submission/w=%.0f%%", writeRatio*100)
	return bench.NewProfile(name, m, ThinkTime)
}
