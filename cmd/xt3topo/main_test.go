package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRun(t *testing.T) {
	for _, tc := range []struct {
		args string
		code int
		want string // substring of stdout (exit 0) or of the one stderr line
	}{
		{"", 0, "topology: 27 x 16 x 24 = 10368 nodes"},
		{"-dims 8x8x8 -wrap xyz -route 0,511", 0, "route 0(0,0,0) -> 511(7,7,7): 3 hops\n  links: X- Y- Z-\n"},
		{"-dims 4x4x4 -wrap xyz -info -route 0,1", 0, "diameter: 6 hops"},
		{"-dims 8x8", 2, "want NxNxN"},
		{"-dims 8x8xeight", 2, `bad dimension "eight"`},
		{"-dims 0x1x1", 2, "positive"},
		{"-route 7", 2, "want src,dst"},
		{"-route 0,1,2", 2, "want src,dst"},
		{"-dims 2x2x2 -route 0,8", 2, "[0, 8)"},
		{"-info -route 0,x", 2, "want src,dst"},
	} {
		var out, errb bytes.Buffer
		code := run(strings.Fields(tc.args), &out, &errb)
		stdout, stderr := out.String(), errb.String()
		if code != tc.code {
			t.Errorf("xt3topo %s: exit %d, want %d (stderr %q)", tc.args, code, tc.code, stderr)
		}
		if tc.code == 0 {
			if stderr != "" || !strings.Contains(stdout, tc.want) {
				t.Errorf("xt3topo %s: stderr %q, stdout lacks %q:\n%s", tc.args, stderr, tc.want, stdout)
			}
			continue
		}
		if stdout != "" || !strings.HasPrefix(stderr, "xt3topo: ") || strings.Count(stderr, "\n") != 1 || !strings.Contains(stderr, tc.want) {
			t.Errorf("xt3topo %s: want nothing on stdout and one attributed line mentioning %q; stdout %q, stderr %q",
				tc.args, tc.want, stdout, stderr)
		}
	}
}
