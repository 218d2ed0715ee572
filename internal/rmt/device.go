// Package rmt models an RMT-style (Tofino-like) match-action pipeline:
// a fixed number of stages with per-stage TCAM, SRAM, VLIW and
// logical-table budgets, a global PHV budget, and a dependency-ordered
// greedy stage allocator. It is the hardware substrate for the paper's
// resource-savings experiments (§3, §4.2): specialized programs with
// fewer tables and narrower match kinds allocate fewer stages and TCAM
// blocks.
package rmt

import (
	"fmt"

	"repro/internal/p4/ast"
)

// Device describes the pipeline's capacity.
type Device struct {
	Name string
	// Stages is the number of match-action stages.
	Stages int
	// TCAMPerStage is the number of TCAM blocks per stage (each
	// TCAMBlockBits wide × TCAMBlockRows deep).
	TCAMPerStage int
	// SRAMPerStage is the number of SRAM blocks per stage.
	SRAMPerStage int
	// TablesPerStage bounds the logical tables placed in one stage.
	TablesPerStage int
	// VLIWPerStage bounds the action (ALU) slots per stage.
	VLIWPerStage int
	// PHVBits is the packet-header-vector capacity.
	PHVBits int
}

// Block geometry (Tofino-like).
const (
	TCAMBlockBits = 44
	TCAMBlockRows = 512
	SRAMBlockBits = 128
	SRAMBlockRows = 1024
	// DefaultTableSize is assumed when a table omits `size = N`.
	DefaultTableSize = 512
)

// Tofino2 returns a Tofino-2-like device profile: 20 stages.
func Tofino2() Device {
	return Device{
		Name:           "tofino2",
		Stages:         20,
		TCAMPerStage:   12,
		SRAMPerStage:   20,
		TablesPerStage: 8,
		VLIWPerStage:   32,
		PHVBits:        4096,
	}
}

// TableReq is the resource requirement of one logical table.
type TableReq struct {
	Name           string
	Keys           []KeyReq
	Entries        int
	Actions        int
	ActionDataBits int
	// Deps are the names of tables this table must be placed strictly
	// after (match-after-write and control dependencies).
	Deps []string
}

// KeyReq is one key component requirement.
type KeyReq struct {
	Width int
	Match ast.MatchKind
}

// needsTCAM reports whether the table requires ternary matching
// hardware.
func (t *TableReq) needsTCAM() bool {
	for _, k := range t.Keys {
		if k.Match == ast.MatchTernary || k.Match == ast.MatchLPM || k.Match == ast.MatchOptional {
			return true
		}
	}
	return false
}

func (t *TableReq) keyBits() int {
	bits := 0
	for _, k := range t.Keys {
		bits += k.Width
	}
	return bits
}

// tcamBlocks returns the TCAM block requirement: key slices of
// TCAMBlockBits × entry groups of TCAMBlockRows.
func (t *TableReq) tcamBlocks() int {
	if !t.needsTCAM() {
		return 0
	}
	wide := ceilDiv(t.keyBits(), TCAMBlockBits)
	deep := ceilDiv(t.entries(), TCAMBlockRows)
	return wide * deep
}

// sramBlocks returns the SRAM block requirement: exact-match storage
// (with a hash overhead word) plus action data.
func (t *TableReq) sramBlocks() int {
	blocks := 0
	if !t.needsTCAM() && len(t.Keys) > 0 {
		wide := ceilDiv(t.keyBits()+16, SRAMBlockBits) // 16b overhead/version
		deep := ceilDiv(t.entries(), SRAMBlockRows)
		blocks += wide * deep
	}
	if t.ActionDataBits > 0 {
		wide := ceilDiv(t.ActionDataBits, SRAMBlockBits)
		deep := ceilDiv(t.entries(), SRAMBlockRows)
		blocks += wide * deep
	}
	return blocks
}

func (t *TableReq) entries() int {
	if t.Entries > 0 {
		return t.Entries
	}
	return DefaultTableSize
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// StageUse is the occupancy of one stage.
type StageUse struct {
	Tables []string
	TCAM   int
	SRAM   int
	VLIW   int
}

// Allocation is the result of placing a program onto the device.
type Allocation struct {
	Device Device
	// StagesUsed is the number of stages with at least one table.
	StagesUsed int
	// Feasible is false when the program needs more stages than the
	// device has (StagesUsed then exceeds Device.Stages).
	Feasible bool
	PerStage []StageUse
	// Totals.
	TCAMBlocks int
	SRAMBlocks int
	PHVBits    int
	// TableStage maps table name to its stage index.
	TableStage map[string]int
}

func (a *Allocation) String() string {
	return fmt.Sprintf("%d/%d stages, %d TCAM, %d SRAM, %d PHV bits (feasible=%v)",
		a.StagesUsed, a.Device.Stages, a.TCAMBlocks, a.SRAMBlocks, a.PHVBits, a.Feasible)
}

// Allocate places tables into stages greedily in dependency order: each
// table goes into the earliest stage after all of its dependencies that
// has room in every resource dimension.
func Allocate(dev Device, tables []TableReq, phvBits int) (*Allocation, error) {
	al := &Allocation{
		Device:     dev,
		Feasible:   true,
		TableStage: make(map[string]int, len(tables)),
		PHVBits:    phvBits,
	}
	if phvBits > dev.PHVBits {
		al.Feasible = false
	}
	maxStages := dev.Stages * 4 // allow infeasible programs to place
	stages := make([]StageUse, 0, dev.Stages)
	grow := func(i int) {
		for len(stages) <= i {
			stages = append(stages, StageUse{})
		}
	}
	for i := range tables {
		t := &tables[i]
		minStage := 0
		for _, dep := range t.Deps {
			ds, ok := al.TableStage[dep]
			if !ok {
				return nil, fmt.Errorf("rmt: table %s depends on unplaced table %s", t.Name, dep)
			}
			if ds+1 > minStage {
				minStage = ds + 1
			}
		}
		tcam, sram := t.tcamBlocks(), t.sramBlocks()
		placed := false
		for s := minStage; s < maxStages; s++ {
			grow(s)
			u := &stages[s]
			if len(u.Tables) >= dev.TablesPerStage ||
				u.TCAM+tcam > dev.TCAMPerStage ||
				u.SRAM+sram > dev.SRAMPerStage ||
				u.VLIW+t.Actions > dev.VLIWPerStage {
				continue
			}
			u.Tables = append(u.Tables, t.Name)
			u.TCAM += tcam
			u.SRAM += sram
			u.VLIW += t.Actions
			al.TableStage[t.Name] = s
			al.TCAMBlocks += tcam
			al.SRAMBlocks += sram
			placed = true
			break
		}
		if !placed {
			return nil, fmt.Errorf("rmt: table %s does not fit on %s (needs %d TCAM, %d SRAM per stage)",
				t.Name, dev.Name, tcam, sram)
		}
	}
	al.PerStage = stages
	for i, u := range stages {
		if len(u.Tables) > 0 {
			al.StagesUsed = i + 1
		}
	}
	if al.StagesUsed > dev.Stages {
		al.Feasible = false
	}
	return al, nil
}
