package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// panicTrace is what a crash leaves on stderr ("goroutine 1 [running]:").
const panicTrace = "[running]"

// TestRunUsage: -list succeeds, and every malformed command line is refused
// with exit status 2 and a message on stderr — an error, never a panic.
func TestRunUsage(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		status int
		stderr string // substring the message must contain; "" means silence
	}{
		{"list", []string{"-list"}, 0, ""},
		{"unknown experiment", []string{"-exp", "nope"}, 2, `unknown experiment "nope"`},
		{"bad shards", []string{"-shards", "x", "-list"}, 2, `UNO_SHARDS="x"`},
		{"bad parallel", []string{"-parallel", "garbage", "-list"}, 2, "-parallel"},
		{"removed batch flag", []string{"-batch", "on", "-list"}, 2, "flag provided but not defined: -batch"},
		{"removed ec flag", []string{"-ec", "rs82", "-list"}, 2, "flag provided but not defined: -ec"},
	} {
		var stdout, stderr bytes.Buffer
		if got := run(tc.args, &stdout, &stderr); got != tc.status {
			t.Errorf("%s: exit status %d, want %d (stderr %q)", tc.name, got, tc.status, stderr.String())
		}
		msg := stderr.String()
		if (tc.stderr == "") != (msg == "") || !strings.Contains(msg, tc.stderr) {
			t.Errorf("%s: stderr %q, want it to contain %q", tc.name, msg, tc.stderr)
		}
		if strings.Contains(msg, panicTrace) {
			t.Errorf("%s: stderr carries a goroutine trace: %q", tc.name, msg)
		}
		if tc.status == 0 && !strings.Contains(stdout.String(), "fig13a") {
			t.Errorf("%s: stdout does not list the experiments: %q", tc.name, stdout.String())
		}
	}
}

// TestMalformedEnvironment: the UNO_* variables are read in package init,
// before main can report anything, so a bad value is checked on a re-exec of
// this test binary: it must die with status 2 and one line on stderr, as a
// bad flag does, and a good value must still start.
func TestMalformedEnvironment(t *testing.T) {
	for _, tc := range []struct {
		env    string
		status int
		stderr string
	}{
		{"UNO_SHARDS=2", 0, ""},
		{"UNO_SHARDS=two", 2, `UNO_SHARDS="two"`},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^$")
		cmd.Env = append(os.Environ(), tc.env)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		status := 0
		if err := cmd.Run(); err != nil {
			var exit *exec.ExitError
			if !errors.As(err, &exit) {
				t.Fatalf("%s: re-exec: %v", tc.env, err)
			}
			status = exit.ExitCode()
		}
		msg := stderr.String()
		if status != tc.status {
			t.Errorf("%s: exit status %d, want %d (stderr %q)", tc.env, status, tc.status, msg)
		}
		if !strings.Contains(msg, tc.stderr) || strings.Count(msg, "\n") > 1 || strings.Contains(msg, panicTrace) {
			t.Errorf("%s: stderr %q, want one line containing %q and no trace", tc.env, msg, tc.stderr)
		}
	}
}
