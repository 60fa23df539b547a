package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
)

// checkFigures validates the markdown the experiments CLI wrote: all
// seven tables present, no degraded ("n/a") cell, and Table I's total
// at the paper's 895 bytes. It returns the text (the workload's
// simulated output) and Fig. 8's IPCP geomean on the memory-intensive
// set. Nothing else is pinned: a model fix may move every other cell.
func checkFigures(path string) (text string, ipcpSpeedup float64, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return "", 0, err
	}
	text = string(b)
	section := ""
	seen := map[string]bool{}
	tab1Total := ""
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, "### "); ok {
			section, _, _ = strings.Cut(rest, " ")
			seen[section] = true
			continue
		}
		if !strings.HasPrefix(line, "|") {
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
			if cells[i] == "n/a" {
				return "", 0, fmt.Errorf("%s: degraded cell in row %q", section, cells[0])
			}
		}
		switch {
		case section == "tab1" && cells[0] == "total":
			tab1Total = cells[len(cells)-1]
		case section == "fig8" && cells[0] == "geomean (mem-intensive)":
			ipcpSpeedup, err = strconv.ParseFloat(cells[len(cells)-1], 64)
			if err != nil {
				return "", 0, fmt.Errorf("fig8: IPCP geomean: %w", err)
			}
		}
	}
	for _, id := range strings.Split(figsIDs, ",") {
		if !seen[id] {
			return "", 0, fmt.Errorf("table %s missing from the output", id)
		}
	}
	if total, perr := strconv.ParseFloat(tab1Total, 64); perr != nil || total != 895 {
		return "", 0, fmt.Errorf("tab1: total is %q, want 895 bytes", tab1Total)
	}
	if !(ipcpSpeedup > 0) {
		return "", 0, fmt.Errorf("fig8: no positive IPCP geomean (mem-intensive) row")
	}
	return text, ipcpSpeedup, nil
}
