package vulndb

import (
	"strings"
	"testing"

	"repro/internal/core/eai"
)

func TestDatabaseSize(t *testing.T) {
	t.Parallel()
	db := Load()
	if len(db.Entries) != 195 {
		t.Fatalf("database has %d entries, the paper's has 195", len(db.Entries))
	}
}

func TestEntriesWellFormed(t *testing.T) {
	t.Parallel()
	db := Load()
	seen := map[string]bool{}
	titles := map[string]bool{}
	for _, e := range db.Entries {
		if e.ID == "" || e.Title == "" || e.Program == "" || e.OS == "" {
			t.Errorf("incomplete entry: %+v", e)
		}
		if seen[e.ID] {
			t.Errorf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
		key := e.Program + "|" + e.Title
		if titles[key] {
			t.Errorf("duplicate entry %s", key)
		}
		titles[key] = true
		if e.Year < 1988 || e.Year > 1998 {
			t.Errorf("%s: year %d outside the database's era", e.ID, e.Year)
		}
	}
}

// TestSection24Triage pins the pre-classification triage: 26 insufficient,
// 22 design, 5 configuration, 142 classified.
func TestSection24Triage(t *testing.T) {
	t.Parallel()
	s := Load().Classify()
	if s.Total != 195 {
		t.Errorf("total = %d", s.Total)
	}
	if s.InsufficientInfo != 26 {
		t.Errorf("insufficient = %d, want 26", s.InsufficientInfo)
	}
	if s.DesignErrors != 22 {
		t.Errorf("design = %d, want 22", s.DesignErrors)
	}
	if s.ConfigErrors != 5 {
		t.Errorf("config = %d, want 5", s.ConfigErrors)
	}
	if s.Classified != 142 {
		t.Errorf("classified = %d, want 142", s.Classified)
	}
}

// TestTable1Counts pins Table 1: 81 indirect, 48 direct, 13 others.
func TestTable1Counts(t *testing.T) {
	t.Parallel()
	s := Load().Classify()
	if s.Indirect != 81 {
		t.Errorf("indirect = %d, want 81", s.Indirect)
	}
	if s.Direct != 48 {
		t.Errorf("direct = %d, want 48", s.Direct)
	}
	if s.Others != 13 {
		t.Errorf("others = %d, want 13", s.Others)
	}
	tbl := Table1(s)
	if tbl.Total() != 142 {
		t.Errorf("table 1 total = %d", tbl.Total())
	}
	out := tbl.String()
	for _, want := range []string{"81", "48", "13", "57.0%", "33.8%", "9.2%"} {
		if !strings.Contains(out, want) {
			t.Errorf("table 1 missing %q:\n%s", want, out)
		}
	}
}

// TestTable2Counts pins Table 2: user 51, env 17, fs 5, net 8, proc 0.
func TestTable2Counts(t *testing.T) {
	t.Parallel()
	s := Load().Classify()
	want := map[eai.Origin]int{
		eai.OriginUserInput:    51,
		eai.OriginEnvVar:       17,
		eai.OriginFileInput:    5,
		eai.OriginNetworkInput: 8,
		eai.OriginProcessInput: 0,
	}
	for origin, n := range want {
		if got := s.IndirectByOrigin[origin]; got != n {
			t.Errorf("%s = %d, want %d", origin, got, n)
		}
	}
	if Table2(s).Total() != 81 {
		t.Errorf("table 2 total = %d", Table2(s).Total())
	}
}

// TestTable3Counts pins Table 3: file system 42, network 5, process 1.
func TestTable3Counts(t *testing.T) {
	t.Parallel()
	s := Load().Classify()
	want := map[eai.Entity]int{
		eai.EntityFileSystem: 42,
		eai.EntityNetwork:    5,
		eai.EntityProcess:    1,
	}
	for entity, n := range want {
		if got := s.DirectByEntity[entity]; got != n {
			t.Errorf("%s = %d, want %d", entity, got, n)
		}
	}
	if Table3(s).Total() != 48 {
		t.Errorf("table 3 total = %d", Table3(s).Total())
	}
}

// TestTable4Counts pins Table 4: existence 20, symlink 6, permission 6,
// ownership 3, invariance 6, workdir 1.
func TestTable4Counts(t *testing.T) {
	t.Parallel()
	s := Load().Classify()
	want := map[eai.Attr]int{
		eai.AttrExistence:         20,
		eai.AttrSymlink:           6,
		eai.AttrPermission:        6,
		eai.AttrOwnership:         3,
		eai.AttrContentInvariance: 6,
		eai.AttrWorkingDirectory:  1,
	}
	for attr, n := range want {
		if got := s.FSByAttr[attr]; got != n {
			t.Errorf("%s = %d, want %d", attr, got, n)
		}
	}
	if Table4(s).Total() != 42 {
		t.Errorf("table 4 total = %d", Table4(s).Total())
	}
}

func TestClassifyRules(t *testing.T) {
	t.Parallel()
	tests := []struct {
		name string
		e    Entry
		want Category
	}{
		{
			"excluded design",
			Entry{Disposition: DesignError},
			Category{Excluded: DesignError},
		},
		{
			"input wins over entity",
			Entry{Disposition: Classifiable, Exploit: Exploit{Input: ChanArgv, Entity: eai.EntityFileSystem}},
			Category{Class: eai.ClassIndirect, Origin: eai.OriginUserInput},
		},
		{
			"stdin is user input",
			Entry{Disposition: Classifiable, Exploit: Exploit{Input: ChanStdin}},
			Category{Class: eai.ClassIndirect, Origin: eai.OriginUserInput},
		},
		{
			"ipc is process input",
			Entry{Disposition: Classifiable, Exploit: Exploit{Input: ChanIPC}},
			Category{Class: eai.ClassIndirect, Origin: eai.OriginProcessInput},
		},
		{
			"entity without input is direct",
			Entry{Disposition: Classifiable, Exploit: Exploit{Entity: eai.EntityFileSystem, Attr: eai.AttrSymlink}},
			Category{Class: eai.ClassDirect, Entity: eai.EntityFileSystem, Attr: eai.AttrSymlink},
		},
		{
			"neither input nor entity is others",
			Entry{Disposition: Classifiable, Exploit: Exploit{CodeDefect: "typo"}},
			Category{},
		},
	}
	for _, tt := range tests {
		tt := tt
		t.Run(tt.name, func(t *testing.T) {
			t.Parallel()
			got := Classify(tt.e)
			if got != tt.want {
				t.Errorf("Classify = %+v, want %+v", got, tt.want)
			}
			if tt.name == "neither input nor entity is others" && !got.Others() {
				t.Error("Others() = false")
			}
		})
	}
}

// TestEveryClassifiedEntryLandsSomewhere: the partition is total —
// excluded + indirect + direct + others = 195.
func TestPartitionTotal(t *testing.T) {
	t.Parallel()
	s := Load().Classify()
	sum := s.InsufficientInfo + s.DesignErrors + s.ConfigErrors +
		s.Indirect + s.Direct + s.Others
	if sum != s.Total {
		t.Errorf("partition sums to %d of %d", sum, s.Total)
	}
	// Cross-checks across tables.
	if s.Indirect != Table2(s).Total() {
		t.Error("table 2 total mismatch")
	}
	if s.Direct != Table3(s).Total() {
		t.Error("table 3 total mismatch")
	}
	if s.DirectByEntity[eai.EntityFileSystem] != Table4(s).Total() {
		t.Error("table 4 total mismatch")
	}
}
