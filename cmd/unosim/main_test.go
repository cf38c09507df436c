package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"uno/internal/harness"
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
		{"bad shards", []string{"-shards", "x", "-list"}, 2, `-shards "x"`},
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

// TestRunRefusesBadScaleAndParallel: a -scale outside (0, harness.MaxScale]
// or a negative -parallel is refused with exit status 2 and a message,
// before any experiment runs. Without the check NaN ran fig3 on garbage
// sizes and horizons, 1e9 overflowed Fig 3's horizon and panicked in a
// RunParallel worker, 0 and -1 quietly ran at scale 1, and -parallel -3
// ran and printed "parallel=-3".
func TestRunRefusesBadScaleAndParallel(t *testing.T) {
	for _, tc := range []struct {
		name, flag, value string
	}{
		{"NaN scale", "-scale", "NaN"},
		{"scale past MaxScale", "-scale", "1e9"},
		{"infinite scale", "-scale", "+Inf"},
		{"zero scale", "-scale", "0"},
		{"negative scale", "-scale", "-1"},
		{"negative parallel", "-parallel", "-3"},
	} {
		var stdout, stderr bytes.Buffer
		if got := run([]string{"-exp", "fig1", tc.flag, tc.value}, &stdout, &stderr); got != 2 {
			t.Errorf("%s: exit status %d, want 2 (stdout %q)", tc.name, got, stdout.String())
		}
		if msg := stderr.String(); !strings.HasPrefix(msg, "unosim: "+tc.flag+" ") || strings.Count(msg, "\n") != 1 {
			t.Errorf("%s: stderr %q, want a one-line message about %s", tc.name, msg, tc.flag)
		}
		if stdout.Len() != 0 {
			t.Errorf("%s: the experiment ran: %q", tc.name, stdout.String())
		}
	}
	// The edges that stay valid: the largest scale, and -parallel 0 (GOMAXPROCS).
	for _, args := range [][]string{
		{"-exp", "fig1", "-scale", fmt.Sprint(harness.MaxScale)},
		{"-exp", "fig1", "-parallel", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if got := run(args, &stdout, &stderr); got != 0 || strings.Contains(stdout.String(), "parallel=0") {
			t.Errorf("%v: exit status %d, stdout %q, stderr %q", args, got, stdout.String(), stderr.String())
		}
	}
}

// TestParseShards pins the -shards syntax.
func TestParseShards(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int
		ok   bool
	}{
		{"off", 0, true}, {"0", 0, true}, {"1", 1, true}, {"2", 2, true},
		{"1024", 1024, true}, {"1025", 0, false}, {"-1", 0, false},
		{"", 0, false}, {"two", 0, false},
	} {
		got, err := parseShards(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("parseShards(%q) = %d, %v; want %d, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
}

// TestShardsFlagReachesExperiments: -shards is the run's partition. Every
// worker count lays the fabric out per DC and prints one digest; off keeps
// it on one shard, whose digests differ.
func TestShardsFlagReachesExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("runs fig13b three times")
	}
	digest := func(shards string) string {
		var stdout, stderr bytes.Buffer
		if st := run([]string{"-exp", "fig13b", "-scale", "0.1", "-shards", shards}, &stdout, &stderr); st != 0 {
			t.Fatalf("-shards %s: exit status %d (stderr %q)", shards, st, stderr.String())
		}
		for _, line := range strings.Split(stdout.String(), "\n") {
			if strings.HasPrefix(line, "digest: ") {
				return line
			}
		}
		t.Fatalf("-shards %s: no digest line in %q", shards, stdout.String())
		return ""
	}
	one, two, off := digest("1"), digest("2"), digest("off")
	if one != two {
		t.Errorf("-shards 1 and 2 differ: %q vs %q", one, two)
	}
	if off == one {
		t.Errorf("-shards off printed the per-DC digest %q", off)
	}
}
