package deploy

import "testing"

// BenchmarkDeployUndeploy measures the deploy layer on its own: run.sh
// and teardown.sh of a generated RUBiS 1-4-2 bundle (eight roles, 102
// elbactl steps and 48 bash calls), the work every sweep and knee search
// does once per topology, on one cluster reused across iterations as a
// runner reuses its platform.
func BenchmarkDeployUndeploy(b *testing.B) {
	c, d := testSetup(b, "1-4-2")
	dp := NewDeployer(c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := dp.Deploy(d)
		if err != nil {
			b.Fatal(err)
		}
		if err := dp.Undeploy(p); err != nil {
			b.Fatal(err)
		}
	}
}
