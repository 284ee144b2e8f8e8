package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestTablePrint(t *testing.T) {
	tb := &table{header: []string{"a", "bbbb"}}
	tb.add("x", "y")
	tb.add("long-cell", "z")
	var b strings.Builder
	tb.print(&b)
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("%d lines, want 4:\n%s", len(lines), b.String())
	}
	if !strings.HasPrefix(lines[0], "a          bbbb") {
		t.Errorf("header misaligned: %q", lines[0])
	}
}

// TestTablePrintByteIdentical renders an effort table twice and requires
// identical bytes: the report printers must be pure functions of their
// inputs.
func TestTablePrintByteIdentical(t *testing.T) {
	tb := &table{header: []string{"scheme", "states", "result"}}
	tb.add("raft-single", "1204", "ok")
	tb.add("paxos-style", "877", "ok")
	tb.add("primary-backup", "93", "violation")
	var a, b bytes.Buffer
	tb.print(&a)
	tb.print(&b)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("table output differs between renders:\nfirst:\n%s\nsecond:\n%s", a.String(), b.String())
	}
}
