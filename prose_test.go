package main

import (
	"bufio"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// proseCap bounds the bytes of the repository's Markdown. It only ever
// comes down: a change that adds prose removes at least as much, and a
// change that removes prose may lower the cap to the new total.
const proseCap = 391973

// briefHeading matches the first line of a change brief ("# <TAG> <n> · <title>"),
// a working note for the change in progress rather than documentation.
var briefHeading = regexp.MustCompile(`^# [A-Z]+ [0-9]+ ·`)

// isBrief reports whether the Markdown file at path opens with briefHeading.
func isBrief(path string) (bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return false, err
	}
	defer f.Close()
	line, err := bufio.NewReader(f).ReadString('\n')
	if err != nil && line == "" {
		return false, nil
	}
	return briefHeading.MatchString(line), nil
}

// TestProseBudget sums every *.md file outside .git/, except a
// change brief, against proseCap.
func TestProseBudget(t *testing.T) {
	total := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".md") {
			brief, err := isBrief(path)
			if err != nil || brief {
				return err
			}
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += int(info.Size())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if total > proseCap {
		t.Errorf("Markdown totals %d bytes, above the cap of %d: remove %d bytes of prose", total, proseCap, total-proseCap)
	}
	t.Logf("Markdown totals %d bytes (cap %d)", total, proseCap)
}
