package extsched

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// tenantScenario is the N-tenant acceptance scenario: four weighted
// tenants, the fairness controller in strict mode, and a mid-phase
// per-tenant deadline event.
func tenantScenario() Scenario {
	return Scenario{
		Name:           "tenants",
		Warmup:         5,
		SampleInterval: 5,
		Tenants: []TenantSpec{
			{Name: "batch", Weight: 1, Share: 0.4},
			{Name: "web", Weight: 4, Share: 0.3},
			{Name: "api", Weight: 4, Share: 0.2, SLOTarget: 2},
			{Name: "admin", Share: 0.1}, // weight 0 = 1
		},
		Fairness: &FairnessSpec{Strict: true, MinObservations: 60},
		Phases: []Phase{
			{Name: "steady", Kind: PhaseOpen, Lambda: 40, Duration: 30},
			{Name: "deadlined", Kind: PhaseOpen, Lambda: 60, Duration: 30,
				Events: []Event{{At: 5, SetTenantDeadlines: map[string]float64{"batch": 3}}}},
		},
	}
}

// TestTenantScenarioRerunBitIdentical: an N-tenant fairness scenario
// run twice on one System reproduces bit-for-bit — per-tenant
// breakdown, fairness trajectory and snapshots included.
func TestTenantScenarioRerunBitIdentical(t *testing.T) {
	sys, err := NewSystem(Config{SetupID: 1, MPL: 8, PercentileSamples: 2000, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	sc := tenantScenario()
	r1, err := sys.Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := sys.Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Errorf("tenant scenario re-run not bit-identical:\n%+v\nvs\n%+v", r1.Total, r2.Total)
	}
	if len(r1.Total.Classes) != 4 {
		t.Fatalf("per-tenant breakdown has %d classes, want 4: %+v", len(r1.Total.Classes), r1.Total.Classes)
	}
	names := map[string]bool{}
	for _, c := range r1.Total.Classes {
		names[c.Name] = true
		if c.Completed == 0 {
			t.Errorf("tenant %q completed nothing", c.Name)
		}
		if c.P95 <= 0 || c.MeanRT <= 0 {
			t.Errorf("tenant %q stats not populated: %+v", c.Name, c)
		}
	}
	for _, n := range []string{"batch", "web", "api", "admin"} {
		if !names[n] {
			t.Errorf("tenant %q missing from Classes: %v", n, names)
		}
	}
	fr := r1.Fairness
	if fr == nil {
		t.Fatal("Result.Fairness nil with Scenario.Fairness set")
	}
	sum := 0
	for _, l := range fr.Limits {
		if l < 1 {
			t.Errorf("fairness limit below the one-slot floor: %v", fr.Limits)
		}
		sum += l
	}
	if sum != 8 {
		t.Errorf("fairness limits %v sum to %d, want the MPL 8", fr.Limits, sum)
	}
}

// Test100TenantScenarioBoundedMemory: a 100-tenant run keeps its
// metrics footprint bounded — the whole-run report carries all 100
// tenants, but interval snapshots elide the per-class slice past
// the 64-class bound rather than allocating 100 entries per tick.
func Test100TenantScenarioBoundedMemory(t *testing.T) {
	const n = 100
	tenants := make([]TenantSpec, n)
	for i := range tenants {
		tenants[i] = TenantSpec{Name: "t" + string(rune('a'+i/26)) + string(rune('a'+i%26)), Share: 1.0 / n}
	}
	sys, err := NewSystem(Config{SetupID: 1, MPL: 8, PercentileSamples: 1000, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	r, err := sys.Run(context.Background(), Scenario{
		Warmup:         2,
		SampleInterval: 5,
		Tenants:        tenants,
		Phases:         []Phase{{Kind: PhaseOpen, Lambda: 60, Duration: 30}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Total.Classes) != n {
		t.Errorf("whole-run breakdown has %d classes, want %d", len(r.Total.Classes), n)
	}
	if len(r.Snapshots) == 0 {
		t.Fatal("no interval snapshots")
	}
	for _, s := range r.Snapshots {
		if len(s.Classes) != 0 {
			t.Fatalf("snapshot carries %d per-class entries, want 0 past the %d-class bound", len(s.Classes), 64)
		}
	}
}

// TestTenantScenarioParse pins the tenants-block JSON vocabulary:
// a valid file round-trips, and the rejects a hand-written file can
// hit (duplicate names, bad shares, unknown tenant in an event,
// fairness without tenants) all error with a pointed message.
func TestTenantScenarioParse(t *testing.T) {
	valid := `{
		"tenants": [
			{"name": "batch", "weight": 1, "share": 0.5},
			{"name": "web", "weight": 3, "share": 0.5, "slo_target": 1.5}
		],
		"fairness": {"strict": true, "weights": {"web": 5}},
		"phases": [{"kind": "open", "duration": 10, "lambda": 20,
			"events": [
				{"at": 2, "set_weights": {"web": 2, "batch": 1}},
				{"at": 4, "set_tenant_deadlines": {"batch": 2.5}},
				{"at": 6, "disable_fairness": true},
				{"at": 7, "set_tenant_limits": {"web": 3, "batch": 1}},
				{"at": 8, "set_tenant_limits": {}}
			]}]
	}`
	sc, err := ParseScenario([]byte(valid))
	if err != nil {
		t.Fatalf("valid tenants scenario rejected: %v", err)
	}
	if len(sc.Tenants) != 2 || sc.Fairness == nil || !sc.Fairness.Strict {
		t.Errorf("parse lost the tenants block: %+v", sc)
	}
	data, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseScenario(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sc, back) {
		t.Errorf("tenants round trip lost data:\n%+v\nvs\n%+v", sc, back)
	}

	rejects := []struct {
		name, js, wantErr string
	}{
		{"one tenant", `{"tenants":[{"name":"a","share":1}],
			"phases":[{"kind":"open","duration":1,"lambda":1}]}`, "tenants"},
		{"dup names", `{"tenants":[{"name":"a","share":0.5},{"name":"a","share":0.5}],
			"phases":[{"kind":"open","duration":1,"lambda":1}]}`, "duplicate"},
		{"bad share sum", `{"tenants":[{"name":"a","share":0.5},{"name":"b","share":0.2}],
			"phases":[{"kind":"open","duration":1,"lambda":1}]}`, "sum"},
		{"zero share", `{"tenants":[{"name":"a","share":0},{"name":"b","share":1}],
			"phases":[{"kind":"open","duration":1,"lambda":1}]}`, "share"},
		{"negative weight", `{"tenants":[{"name":"a","weight":-1,"share":0.5},{"name":"b","share":0.5}],
			"phases":[{"kind":"open","duration":1,"lambda":1}]}`, "weight"},
		{"unknown tenant in weights event", `{"tenants":[{"name":"a","share":0.5},{"name":"b","share":0.5}],
			"phases":[{"kind":"open","duration":1,"lambda":1,
				"events":[{"at":0,"set_weights":{"nope":2}}]}]}`, "nope"},
		{"unknown tenant in deadlines event", `{"tenants":[{"name":"a","share":0.5},{"name":"b","share":0.5}],
			"phases":[{"kind":"open","duration":1,"lambda":1,
				"events":[{"at":0,"set_tenant_deadlines":{"ghost":1}}]}]}`, "ghost"},
		{"fairness without tenants", `{"fairness":{"strict":true},
			"phases":[{"kind":"open","duration":1,"lambda":1}]}`, "tenants"},
		{"fairness unknown override", `{"tenants":[{"name":"a","share":0.5},{"name":"b","share":0.5}],
			"fairness":{"weights":{"zzz":2}},
			"phases":[{"kind":"open","duration":1,"lambda":1}]}`, "zzz"},
	}
	for _, tc := range rejects {
		_, err := ParseScenario([]byte(tc.js))
		if err == nil {
			t.Errorf("%s: invalid tenants scenario accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
}
