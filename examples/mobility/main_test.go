package main

import (
	"bytes"
	"os"
	"testing"
)

// TestStdoutPinned runs the example and diffs its output against
// testdata/stdout.txt: every number it prints is deterministic.
func TestStdoutPinned(t *testing.T) {
	var got bytes.Buffer
	if err := run(&got, nil); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/stdout.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("output differs from testdata/stdout.txt\n--- got\n%s--- want\n%s", got.String(), want)
	}
}
