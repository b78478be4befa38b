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
		want string // substring of stdout, or of the one stderr line for exit 2
	}{
		// The paper's configuration (§4.2): 1,024 sources, one 1,274-pending pool.
		{"", 0, "additional 1274-pending pools that still fit: 7"},
		{"-sources 2048 -pendings 1274,1274,1274", 0, "pendings (accel #2):           1274 x 32 B = 40768 bytes"},
		{"-pendings 100000", 1, "CONFIGURATION DOES NOT FIT"},
		{"-pendings 12,many", 2, `bad pending count "many"`},
		{"-pendings -4", 2, `bad pending count "-4"`},
	} {
		var out, errb bytes.Buffer
		code := run(strings.Fields(tc.args), &out, &errb)
		stdout, stderr := out.String(), errb.String()
		if code != tc.code {
			t.Errorf("fwsram %s: exit %d, want %d (stderr %q)", tc.args, code, tc.code, stderr)
		}
		if tc.code != 2 {
			if stderr != "" || !strings.Contains(stdout, tc.want) {
				t.Errorf("fwsram %s: stderr %q, stdout lacks %q:\n%s", tc.args, stderr, tc.want, stdout)
			}
			continue
		}
		if stdout != "" || !strings.HasPrefix(stderr, "fwsram: ") || strings.Count(stderr, "\n") != 1 || !strings.Contains(stderr, tc.want) {
			t.Errorf("fwsram %s: want nothing on stdout and one attributed line mentioning %q; stdout %q, stderr %q",
				tc.args, tc.want, stdout, stderr)
		}
	}
}
