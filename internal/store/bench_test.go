package store

import (
	"fmt"
	"math/rand"
	"testing"
)

// rubisInteractions are RUBiS's interaction classes, the keys of a
// RUBiS result's per_interaction map.
var rubisInteractions = []string{
	"AboutMe", "Browse", "BrowseCategories", "BrowseCategoriesInRegion", "BrowseRegions",
	"BuyNow", "BuyNowAuth", "Home", "PutBid", "PutBidAuth", "PutCommentAuth", "Register",
	"RegisterItem", "RegisterUser", "SearchItemsInCategory", "SearchItemsInRegion",
	"SelectCategoryToSellItem", "Sell", "SellItemForm", "StoreBid", "StoreBuyNow",
	"StoreComment", "ViewBidHistory", "ViewItem", "ViewUserInfo",
}

// rubisStore builds a store shaped like one job of the benchmark's
// warm-replay workload: a RUBiS sweep of ten populations on a 1-4-2
// topology, every measurement a float with a full mantissa.
func rubisStore() *Store {
	rng := rand.New(rand.NewSource(1))
	f := func(scale float64) float64 { return rng.Float64() * scale }
	s := New()
	for users := 100; users <= 1900; users += 200 {
		r := Result{
			Key:       Key{Experiment: "warm-replay-7", Topology: "1-4-2", Users: users, WriteRatioPct: 15},
			Completed: true,
			AvgRTms:   f(200), P50ms: f(100), P90ms: f(400), P99ms: f(900), MaxRTms: f(2000),
			Throughput: f(300), Requests: int64(users * 20), Errors: int64(users / 100),
			TierCPU:        map[string]float64{"web": f(100), "app": f(100), "db": f(100)},
			HostCPU:        map[string]float64{"APACHE1": f(100), "MYSQL1": f(100), "MYSQL2": f(100)},
			CollectedBytes: 49482 + users,
			RunSeconds:     15,
			PerInteraction: map[string]float64{},
		}
		for i := 1; i <= 4; i++ {
			r.HostCPU[fmt.Sprintf("JONAS%d", i)] = f(100)
		}
		for _, name := range rubisInteractions {
			r.PerInteraction[name] = f(300)
		}
		s.Put(r)
	}
	return s
}

// BenchmarkStoreMarshalJSON measures the store codec on the results a
// warm-replay job writes: sort, then the indented JSON.
func BenchmarkStoreMarshalJSON(b *testing.B) {
	s := rubisStore()
	data, err := s.MarshalJSON()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.MarshalJSON(); err != nil {
			b.Fatal(err)
		}
	}
}
