package sketch

import "testing"

// TestSketchesAllocateNothing is the absolute witness for the
// attribution hot paths' 0 allocs/op budget: count-min update and
// estimate, and space-saving observe on tracked keys and under
// eviction churn.
func TestSketchesAllocateNothing(t *testing.T) {
	cm := NewCountMin(4, 2048, 0xF100D)
	i := uint64(0)
	if a := testing.AllocsPerRun(1000, func() { cm.Update(i, 1); i++ }); a != 0 {
		t.Errorf("CountMin.Update allocates %v, want 0", a)
	}
	if a := testing.AllocsPerRun(1000, func() { _ = cm.Estimate(i); i++ }); a != 0 {
		t.Errorf("CountMin.Estimate allocates %v, want 0", a)
	}
	local := NewCountMinLocal(4, 2048, 0xF100D)
	if a := testing.AllocsPerRun(1000, func() {
		local.Update(i, 1)
		if i++; i&63 == 0 {
			_ = cm.AbsorbLocal(local)
		}
	}); a != 0 {
		t.Errorf("CountMinLocal.Update + CountMin.AbsorbLocal allocate %v, want 0", a)
	}
	ss := NewSpaceSaving(64)
	for k := uint64(0); k < 64; k++ {
		ss.Observe(k, 1)
	}
	if a := testing.AllocsPerRun(1000, func() { ss.Observe(i%64, 1); i++ }); a != 0 {
		t.Errorf("SpaceSaving.Observe on a tracked key allocates %v, want 0", a)
	}
	i = 1 << 20 // fresh keys: every observe evicts the minimum slot
	if a := testing.AllocsPerRun(1000, func() { ss.Observe(i, 1); i++ }); a != 0 {
		t.Errorf("SpaceSaving.Observe under eviction churn allocates %v, want 0", a)
	}
}
