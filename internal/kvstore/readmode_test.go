package kvstore

import "testing"

func TestParseReadMode(t *testing.T) {
	cases := []struct {
		in   string
		want ReadMode
	}{
		{"leader-readindex", ReadModeReadIndex},
		{"readindex", ReadModeReadIndex},
		{"", ReadModeReadIndex},
		{"leader-lease", ReadModeLease},
		{"lease", ReadModeLease},
		{"follower", ReadModeFollower},
	}
	for _, c := range cases {
		got, err := ParseReadMode(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseReadMode(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	if _, err := ParseReadMode("bogus"); err == nil {
		t.Error("ParseReadMode accepted bogus mode")
	}
	// The canonical spellings round-trip through String.
	for _, m := range []ReadMode{ReadModeReadIndex, ReadModeLease, ReadModeFollower} {
		if got, err := ParseReadMode(m.String()); err != nil || got != m {
			t.Errorf("round trip %v -> %q -> %v, %v", m, m.String(), got, err)
		}
	}
}
