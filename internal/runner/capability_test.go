package runner

import (
	"slices"
	"testing"
)

// TestCapabilityKeys: every event key the runner gates is documented
// in its row's Keys, and every row has a name, a need and a reason.
func TestCapabilityKeys(t *testing.T) {
	for _, ef := range eventFeatures {
		if !slices.Contains(Capabilities[ef.feature].Keys, ef.key) {
			t.Errorf("event key %q missing from row %q's Keys", ef.key, Capabilities[ef.feature].Name)
		}
	}
	for f, c := range Capabilities {
		if c.Name == "" || c.Needs == 0 || c.Why == "" || len(c.Keys) == 0 {
			t.Errorf("row %d incomplete: %+v", f, c)
		}
	}
}
