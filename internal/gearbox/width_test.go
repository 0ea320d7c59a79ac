package gearbox

import (
	"reflect"
	"testing"

	"gearbox/internal/partition"
	"gearbox/internal/semiring"
)

// TestNarrowWideIndexEquivalence pins the width-adaptive row-index contract
// end to end: the same plan with its matrix forced to 32-bit storage must
// produce bit-identical IterStats and frontiers to the 16-bit path, for
// every Table 4 version. partition.Build
// re-chooses storage width from the dimensions, so the wide variant is
// forced on the built plan — content identical, representation different.
func TestNarrowWideIndexEquivalence(t *testing.T) {
	m := testMatrix(t, 31)
	entries := randomFrontier(m.NumRows, 60, 41)
	for _, vc := range versionConfigs() {
		t.Run(vc.name, func(t *testing.T) {
			narrow := buildMachine(t, m, vc.cfg, semiring.PlusTimes{})
			if bits := narrow.Plan().Matrix.IndexBits(); bits != 16 {
				t.Fatalf("plan for a %d-row matrix stored %d-bit indexes, want 16", m.NumRows, bits)
			}

			plan, err := partition.Build(m, smallGeo(), vc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			plan.Matrix.ForceWide()
			wide, err := New(plan, semiring.PlusTimes{}, smallConfig())
			if err != nil {
				t.Fatal(err)
			}

			stN, frN := runChained(t, narrow, entries, 3)
			stW, frW := runChained(t, wide, entries, 3)
			if !reflect.DeepEqual(stN, stW) {
				t.Fatalf("IterStats diverge between 16- and 32-bit indexes:\nnarrow: %+v\nwide:   %+v", stN, stW)
			}
			if !reflect.DeepEqual(frN, frW) {
				t.Fatal("frontiers diverge between 16- and 32-bit indexes")
			}
		})
	}
}
