package main

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestRunExitCodes(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no-such-setup.yaml")
	cases := []struct {
		name string
		args []string
		code int
		want string // substring of stderr
	}{
		{"no args", nil, 2, "usage:"},
		{"unknown command", []string{"frobnicate"}, 2, "usage:"},
		{"retired bench command", []string{"bench"}, 2, "usage:"},
		{"help", []string{"help"}, 0, "usage:"},
		{"run on a missing setup", []string{"run", missing, "workload.yaml"}, 1, missing},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stderr bytes.Buffer
			if code := run(c.args, &stderr); code != c.code {
				t.Fatalf("exit %d, want %d; stderr:\n%s", code, c.code, stderr.String())
			}
			if !strings.Contains(stderr.String(), c.want) {
				t.Fatalf("stderr lacks %q:\n%s", c.want, stderr.String())
			}
		})
	}
}

func TestUsageNamesCommands(t *testing.T) {
	var stderr bytes.Buffer
	usage(&stderr)
	var cmds []string
	for _, line := range strings.Split(stderr.String(), "\n") {
		if f := strings.Fields(line); len(f) > 1 && f[0] == "diablo" {
			cmds = append(cmds, f[1])
		}
	}
	if want := []string{"primary", "secondary", "run"}; !reflect.DeepEqual(cmds, want) {
		t.Fatalf("usage names commands %v, want %v", cmds, want)
	}
}
