package main

import (
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestSelectSections pins the -only contract: empty selects all,
// unknown names and empty selections are errors (not silent no-ops),
// whitespace and stray commas are tolerated.
func TestSelectSections(t *testing.T) {
	known := sectionNames()

	if want, err := selectSections("", known); err != nil || want != nil {
		t.Fatalf("empty -only: want=%v err=%v, want nil/nil (all sections)", want, err)
	}

	want, err := selectSections("burst, churn", known)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 2 || !want["burst"] || !want["churn"] {
		t.Fatalf("selection = %v, want {burst, churn}", want)
	}

	if _, err := selectSections("bursty", known); err == nil {
		t.Fatal("unknown section must be an error")
	} else if !strings.Contains(err.Error(), "bursty") {
		t.Fatalf("error %q does not name the bad section", err)
	}

	if _, err := selectSections("burst,nope", known); err == nil {
		t.Fatal("one unknown name in a valid list must still be an error")
	}

	if _, err := selectSections(" , ,", known); err == nil {
		t.Fatal("a selection of only separators must be an error")
	}

	if w, err := selectSections("churn,", known); err != nil || len(w) != 1 {
		t.Fatalf("trailing comma: want={churn} err=%v", err)
	}
}

// TestSectionRegistry: every documented section is registered, exactly
// once, and the churn section (the bench-json artifact the soak recipe
// references) is present.
func TestSectionRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range benchSections {
		if seen[s.name] {
			t.Fatalf("section %q registered twice", s.name)
		}
		if s.run == nil {
			t.Fatalf("section %q has no run function", s.name)
		}
		seen[s.name] = true
	}
	for _, required := range []string{"table1", "table2", "table3", "burst", "batch", "dd", "precision", "churn", "ablation", "pps"} {
		if !seen[required] {
			t.Fatalf("section %q missing from registry", required)
		}
	}
}

// TestSectionDocMatchesRegistry pins the package doc comment's
// "Sections:" list to the section registry, name for name and in run
// order, so the usage text can never drift from the implemented
// sections again (it had: the doc listed a stale order with later
// additions missing).
func TestSectionDocMatchesRegistry(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?s)// Sections: (.*?)\. The list`).FindSubmatch(src)
	if m == nil {
		t.Fatal(`doc comment lost its "Sections: ..." sentence`)
	}
	raw := strings.NewReplacer("\n// ", " ", "\n//", " ").Replace(string(m[1]))
	var listed []string
	for _, name := range strings.Split(raw, ",") {
		listed = append(listed, strings.TrimSpace(name))
	}
	if want := sectionNames(); !slices.Equal(listed, want) {
		t.Fatalf("doc comment lists sections\n  %v\nregistry implements\n  %v", listed, want)
	}
}
