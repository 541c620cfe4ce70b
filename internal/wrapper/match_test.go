package wrapper

import "testing"

// TestMatchRealSigns: a Real cell takes at most one leading minus sign and
// one decimal point.
func TestMatchRealSigns(t *testing.T) {
	for _, tc := range []struct {
		text  string
		score float64
	}{
		{"--5", 0},
		{"-5", 1},
		{"-.5", 1},
		{"5.", 1},
		{"1.2.3", 0},
	} {
		if got := matchReal(tc.text); got.Score != tc.score {
			t.Errorf("matchReal(%q) = %+v, want score %v", tc.text, got, tc.score)
		}
	}
}
