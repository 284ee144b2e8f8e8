package main

import (
	"fmt"
	"io"
	"strings"
)

// table is a simple aligned text table for the effort reports (E2–E4).
type table struct {
	header []string
	rows   [][]string
}

// add appends a row.
func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

// print writes the table with aligned columns.
func (t *table) print(w io.Writer) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(w, "%-*s  ", widths[i], c)
		}
		fmt.Fprintln(w)
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.rows {
		line(row)
	}
}
