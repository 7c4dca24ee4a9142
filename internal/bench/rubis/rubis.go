// Package rubis models the RUBiS auction-site benchmark (Rice University
// Bidding System) used in the paper's Sections IV and V: 26 interaction
// types, the browse-only and bidding transition mixes, and a tunable
// database write ratio extended to 0%–90% as in the paper's Figures 1–3.
//
// Two application-server demand profiles are provided, matching the
// paper's JOnAS and WebLogic experiments; the WebLogic server sustains
// roughly twice the users of JOnAS at saturation (paper §IV.B).
package rubis

import (
	"fmt"

	"elba/internal/bench"
	"elba/internal/sim"
)

// AppServer selects the application-server demand profile.
type AppServer int

// Supported application servers (paper Table 1: JOnAS and WebLogic 8.1).
const (
	JOnAS AppServer = iota
	WebLogic
)

// String names the server for reports.
func (a AppServer) String() string {
	switch a {
	case JOnAS:
		return "jonas"
	case WebLogic:
		return "weblogic"
	default:
		return fmt.Sprintf("appserver(%d)", int(a))
	}
}

// ThinkTime is the emulated browser's mean think time in seconds,
// matching the RUBiS client emulator default.
const ThinkTime = 7.0

// Reference per-class demand targets in CPU seconds at the 3 GHz
// reference frequency (see DESIGN.md §3 for the calibration derivation).
const (
	webDemand = 0.0015

	jonasReadApp  = 0.0344
	jonasWriteApp = 0.0050

	// WebLogic is modestly more efficient per request than JOnAS; the
	// paper's "about twice as many users at saturation" (§IV.B) is the
	// product of this and the Warp nodes' two CPUs (Table 2), versus the
	// single-CPU Emulab nodes JOnAS ran on.
	weblogicReadApp  = 0.0310
	weblogicWriteApp = 0.0045

	readDB  = 0.00078
	writeDB = 0.00157
)

// state declares one RUBiS interaction and its hand-authored relative
// demand weights; absolute demands come from calibration against the
// per-class targets.
type state struct {
	name      string
	write     bool
	appWeight float64
	dbWeight  float64
	reply     int // reply size in bytes
	next      map[string]float64
}

// The 26 RUBiS interaction states. Successor weights encode the user's
// browsing structure: browsing leads to searches, item views lead to bid,
// buy, and comment flows, and the write interactions return the user to
// browsing. The five write interactions (RegisterUser, StoreBuyNow,
// StoreBid, StoreComment, RegisterItem) are the database writers.
var rubisStates = []state{
	{name: "Home", appWeight: 0.3, dbWeight: 0.3, reply: 2600, next: map[string]float64{
		"Browse": 6, "Register": 1, "SellItemForm": 1, "AboutMe": 1,
	}},
	{name: "Browse", appWeight: 0.4, dbWeight: 0.4, reply: 3200, next: map[string]float64{
		"BrowseCategories": 5, "BrowseRegions": 3,
	}},
	{name: "BrowseCategories", appWeight: 0.8, dbWeight: 0.9, reply: 6300, next: map[string]float64{
		"SearchItemsInCategory": 8, "Browse": 1,
	}},
	{name: "SearchItemsInCategory", appWeight: 1.6, dbWeight: 1.8, reply: 12000, next: map[string]float64{
		"ViewItem": 6, "SearchItemsInCategory": 3, "Browse": 1,
	}},
	{name: "BrowseRegions", appWeight: 0.8, dbWeight: 0.8, reply: 5200, next: map[string]float64{
		"BrowseCategoriesInRegion": 8, "Browse": 1,
	}},
	{name: "BrowseCategoriesInRegion", appWeight: 1.0, dbWeight: 0.9, reply: 6100, next: map[string]float64{
		"SearchItemsInRegion": 8, "Browse": 1,
	}},
	{name: "SearchItemsInRegion", appWeight: 1.6, dbWeight: 1.7, reply: 11500, next: map[string]float64{
		"ViewItem": 6, "SearchItemsInRegion": 3, "Browse": 1,
	}},
	{name: "ViewItem", appWeight: 1.2, dbWeight: 1.2, reply: 8800, next: map[string]float64{
		"ViewUserInfo": 2, "ViewBidHistory": 2, "PutBidAuth": 3,
		"BuyNowAuth": 1, "PutCommentAuth": 1, "Browse": 3,
	}},
	{name: "ViewUserInfo", appWeight: 0.9, dbWeight: 1.0, reply: 6200, next: map[string]float64{
		"ViewItem": 4, "Browse": 2,
	}},
	{name: "ViewBidHistory", appWeight: 1.1, dbWeight: 1.5, reply: 7400, next: map[string]float64{
		"ViewItem": 4, "PutBidAuth": 2, "Browse": 1,
	}},
	{name: "BuyNowAuth", appWeight: 0.5, dbWeight: 0.5, reply: 2100, next: map[string]float64{
		"BuyNow": 9, "ViewItem": 1,
	}},
	{name: "BuyNow", appWeight: 0.9, dbWeight: 0.9, reply: 4300, next: map[string]float64{
		"StoreBuyNow": 8, "ViewItem": 2,
	}},
	{name: "StoreBuyNow", write: true, appWeight: 1.0, dbWeight: 1.0, reply: 1700, next: map[string]float64{
		"Home": 2, "Browse": 6,
	}},
	{name: "PutBidAuth", appWeight: 0.5, dbWeight: 0.5, reply: 2100, next: map[string]float64{
		"PutBid": 9, "ViewItem": 1,
	}},
	{name: "PutBid", appWeight: 1.0, dbWeight: 1.1, reply: 5400, next: map[string]float64{
		"StoreBid": 8, "ViewItem": 2,
	}},
	{name: "StoreBid", write: true, appWeight: 1.0, dbWeight: 0.8, reply: 1600, next: map[string]float64{
		"SearchItemsInCategory": 4, "ViewItem": 3, "Browse": 3,
	}},
	{name: "PutCommentAuth", appWeight: 0.5, dbWeight: 0.5, reply: 2100, next: map[string]float64{
		"PutComment": 9, "ViewItem": 1,
	}},
	{name: "PutComment", appWeight: 0.8, dbWeight: 0.8, reply: 3900, next: map[string]float64{
		"StoreComment": 8, "ViewItem": 2,
	}},
	{name: "StoreComment", write: true, appWeight: 1.0, dbWeight: 0.9, reply: 1600, next: map[string]float64{
		"ViewItem": 5, "Browse": 5,
	}},
	{name: "Register", appWeight: 0.4, dbWeight: 0.3, reply: 2500, next: map[string]float64{
		"RegisterUser": 8, "Home": 2,
	}},
	{name: "RegisterUser", write: true, appWeight: 1.0, dbWeight: 1.2, reply: 1900, next: map[string]float64{
		"Home": 4, "Browse": 6,
	}},
	{name: "SellItemForm", appWeight: 0.5, dbWeight: 0.4, reply: 2300, next: map[string]float64{
		"SelectCategoryToSellItem": 9, "Home": 1,
	}},
	{name: "SelectCategoryToSellItem", appWeight: 0.6, dbWeight: 0.6, reply: 3600, next: map[string]float64{
		"Sell": 9, "Home": 1,
	}},
	{name: "Sell", appWeight: 0.5, dbWeight: 0.5, reply: 3100, next: map[string]float64{
		"RegisterItem": 8, "Home": 2,
	}},
	{name: "RegisterItem", write: true, appWeight: 1.0, dbWeight: 1.4, reply: 1800, next: map[string]float64{
		"Home": 3, "Browse": 7,
	}},
	{name: "AboutMe", appWeight: 1.8, dbWeight: 2.0, reply: 14800, next: map[string]float64{
		"ViewItem": 4, "Browse": 4, "Home": 2,
	}},
}

// NumInteractions is the number of RUBiS interaction types.
const NumInteractions = 26

// DefaultWriteRatio is the bidding mix's write fraction (paper §III.B:
// "bidding interactions that cause 15% writes to the database").
const DefaultWriteRatio = 0.15

// buildStates materializes a fresh interaction table (each model owns its
// own copy because calibration rescales demands in place).
func buildStates() []sim.Interaction {
	out := make([]sim.Interaction, len(rubisStates))
	for i, s := range rubisStates {
		out[i] = sim.Interaction{
			Name:         s.name,
			Write:        s.write,
			AppDemand:    s.appWeight, // placeholder weight; calibrated below
			DBDemand:     s.dbWeight,
			WebDemand:    1,
			RequestBytes: 420,
			ReplyBytes:   s.reply,
		}
	}
	return out
}

// buildMatrix constructs the bidding-mix base transition matrix over a
// fresh state table.
func buildMatrix() (*bench.TransitionMatrix, error) {
	states := buildStates()
	index := make(map[string]int, len(states))
	for i, s := range states {
		index[s.Name] = i
	}
	rows := make([][]float64, len(states))
	for i, s := range rubisStates {
		row := make([]float64, len(states))
		for name, w := range s.next {
			j, ok := index[name]
			if !ok {
				return nil, fmt.Errorf("rubis: state %s references unknown successor %s", s.name, name)
			}
			row[j] = w
		}
		rows[i] = row
	}
	return bench.NewTransitionMatrix(states, rows)
}

// New builds a RUBiS workload model for the given application server and
// database write ratio in [0, 0.9] (the paper's extended range).
func New(server AppServer, writeRatio float64) (*bench.Profile, error) {
	if writeRatio < 0 || writeRatio > 0.9 {
		return nil, fmt.Errorf("rubis: write ratio %g outside the paper's 0–0.9 range", writeRatio)
	}
	base, err := buildMatrix()
	if err != nil {
		return nil, err
	}
	m, err := base.Reweight(writeRatio)
	if err != nil {
		return nil, err
	}
	targets := bench.DemandTargets{
		Web:     webDemand,
		ReadDB:  readDB,
		WriteDB: writeDB,
	}
	switch server {
	case JOnAS:
		targets.ReadApp, targets.WriteApp = jonasReadApp, jonasWriteApp
	case WebLogic:
		targets.ReadApp, targets.WriteApp = weblogicReadApp, weblogicWriteApp
	default:
		return nil, fmt.Errorf("rubis: unknown application server %v", server)
	}
	if err := bench.Calibrate(m, targets); err != nil {
		return nil, err
	}
	name := fmt.Sprintf("rubis/%s/w=%.0f%%", server, writeRatio*100)
	return bench.NewProfile(name, m, ThinkTime)
}

// Bidding builds the default bidding mix (15% writes).
func Bidding(server AppServer) (*bench.Profile, error) {
	return New(server, DefaultWriteRatio)
}
