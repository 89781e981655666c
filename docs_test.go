package ebv_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	flagDef    = regexp.MustCompile(`flag\.[A-Z]\w*\(\s*"([^"]+)"`)
	flagRef    = regexp.MustCompile("`-([a-z][a-z0-9]*)[^`]*`")
	binaryName = regexp.MustCompile("`([a-z]+)`")
)

// binaryFlags maps each cmd/<name> binary to the flags its main.go
// defines.
func binaryFlags(t *testing.T) map[string]map[string]bool {
	t.Helper()
	mains, err := filepath.Glob(filepath.Join("cmd", "*", "main.go"))
	if err != nil || len(mains) == 0 {
		t.Fatalf("no cmd/*/main.go found: %v", err)
	}
	flags := make(map[string]map[string]bool)
	for _, path := range mains {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		defined := make(map[string]bool)
		for _, m := range flagDef.FindAllSubmatch(src, -1) {
			defined[string(m[1])] = true
		}
		flags[filepath.Base(filepath.Dir(path))] = defined
	}
	return flags
}

// readmeTableRows returns README.md's markdown table rows, split into
// trimmed cells.
func readmeTableRows(t *testing.T) [][]string {
	t.Helper()
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]string
	for _, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, "|") {
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		rows = append(rows, cells)
	}
	return rows
}

// TestREADMEFlagsDefined checks that every backticked -flag in
// README.md's tables is defined by some binary under cmd/.
func TestREADMEFlagsDefined(t *testing.T) {
	anyBinary := make(map[string]bool)
	for _, defined := range binaryFlags(t) {
		for name := range defined {
			anyBinary[name] = true
		}
	}
	for _, row := range readmeTableRows(t) {
		for _, cell := range row {
			for _, m := range flagRef.FindAllStringSubmatch(cell, -1) {
				if !anyBinary[m[1]] {
					t.Errorf("README table row %q names -%s, which no binary defines", strings.Join(row, " | "), m[1])
				}
			}
		}
	}
}

// TestREADMENodeRolesFlags checks that each row of README.md's "Node
// roles" table lists only flags its binary defines.
func TestREADMENodeRolesFlags(t *testing.T) {
	flags := binaryFlags(t)
	rows := readmeTableRows(t)
	checked := 0
	for i, header := range rows {
		if len(header) < 2 || header[0] != "role" || header[1] != "binary" {
			continue
		}
		for _, row := range rows[i+2:] { // skip the |---| separator
			if len(row) != len(header) {
				break
			}
			m := binaryName.FindStringSubmatch(row[1])
			if m == nil {
				t.Fatalf("role %q: no backticked binary in %q", row[0], row[1])
			}
			defined, ok := flags[m[1]]
			if !ok {
				t.Fatalf("role %q names binary %q, which has no cmd/%s/main.go", row[0], m[1], m[1])
			}
			for _, ref := range flagRef.FindAllStringSubmatch(row[len(row)-1], -1) {
				if !defined[ref[1]] {
					t.Errorf("role %q lists -%s, which %s does not define", row[0], ref[1], m[1])
				}
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal(`README.md has no "| role | binary |" table`)
	}
}
