package wire

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"

	"repro/internal/controlplane"
	"repro/internal/sym"
)

// DefaultMaxBody is the request body cap Decode applies when the caller
// passes max <= 0. Snapshot uploads are the largest legitimate bodies.
const DefaultMaxBody = 32 << 20

// Decoding errors a handler can map to distinct HTTP statuses.
var (
	// ErrTooLarge marks a body over the size cap.
	ErrTooLarge = errors.New("wire: body too large")
	// ErrTrailing marks bytes after the JSON value.
	ErrTrailing = errors.New("wire: trailing data after JSON body")
)

// Decode strictly parses one JSON value from r into v: at most max
// bytes (DefaultMaxBody when max <= 0), unknown fields rejected, and
// nothing but whitespace after the value. Malformed, truncated or
// oversized input returns an error; no input panics. A body over the
// cap is ErrTooLarge whatever its bytes, even when they stop parsing
// before the cap.
func Decode(r io.Reader, max int64, v any) error {
	if max <= 0 {
		max = DefaultMaxBody
	}
	lr := &io.LimitedReader{R: r, N: max + 1}
	dec := json.NewDecoder(lr)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		// The decoder stops at the first error, which may come before
		// the cap: spend the rest of the budget to tell the two apart.
		io.Copy(io.Discard, lr)
		if lr.N <= 0 {
			return fmt.Errorf("%w (cap %d bytes)", ErrTooLarge, max)
		}
		return fmt.Errorf("wire: %w", err)
	}
	if lr.N <= 0 {
		return fmt.Errorf("%w (cap %d bytes)", ErrTooLarge, max)
	}
	if _, err := dec.Token(); err != io.EOF {
		return ErrTrailing
	}
	return nil
}

// DecodeBytes is Decode over an in-memory body.
func DecodeBytes(data []byte, v any) error {
	return Decode(strings.NewReader(string(data)), int64(len(data))+1, v)
}

// hexDigits renders the low 4*n bits of (hi, lo), most significant
// nibble first.
func hexNibble(hi, lo uint64, idx int) byte {
	// idx counts nibbles from the least significant end.
	var v uint64
	if idx >= 16 {
		v = hi >> (uint(idx-16) * 4)
	} else {
		v = lo >> (uint(idx) * 4)
	}
	return "0123456789abcdef"[v&0xf]
}

// FromBV converts a bitvector to its wire form. The zero-width BV (the
// engine's "no value" — e.g. an absent ternary mask) has no wire form;
// callers encode it as an omitted optional field.
func FromBV(v sym.BV) BV {
	n := (int(v.W) + 3) / 4
	var b strings.Builder
	b.Grow(n)
	for i := n - 1; i >= 0; i-- {
		b.WriteByte(hexNibble(v.Hi, v.Lo, i))
	}
	return BV{W: v.W, Hex: b.String()}
}

// ToBV validates and converts a wire bitvector: width 1..128, hex
// exactly (w+3)/4 lowercase nibbles, and no bit set above the width.
func ToBV(v BV) (sym.BV, error) {
	if v.W < 1 || v.W > sym.MaxWidth {
		return sym.BV{}, fmt.Errorf("wire: bitvector width %d out of range [1,%d]", v.W, sym.MaxWidth)
	}
	want := (int(v.W) + 3) / 4
	if len(v.Hex) != want {
		return sym.BV{}, fmt.Errorf("wire: width-%d bitvector needs %d hex nibbles, got %d", v.W, want, len(v.Hex))
	}
	var hi, lo uint64
	for i := 0; i < len(v.Hex); i++ {
		c := v.Hex[i]
		var d uint64
		switch {
		case c >= '0' && c <= '9':
			d = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint64(c-'a') + 10
		default:
			return sym.BV{}, fmt.Errorf("wire: invalid hex digit %q in bitvector", c)
		}
		hi = hi<<4 | lo>>60
		lo = lo<<4 | d
	}
	out := sym.BV{Hi: hi, Lo: lo, W: v.W}
	if out != sym.NewBV2(v.W, hi, lo) {
		return sym.BV{}, fmt.Errorf("wire: bitvector value overflows width %d", v.W)
	}
	return out, nil
}

// toOptBV maps an optional wire bitvector; nil decodes to the
// zero-width "no value" BV.
func toOptBV(v *BV) (sym.BV, error) {
	if v == nil {
		return sym.BV{}, nil
	}
	return ToBV(*v)
}

// fromOptBV maps a zero-width BV back to an omitted field.
func fromOptBV(v sym.BV) *BV {
	if v.W == 0 {
		return nil
	}
	w := FromBV(v)
	return &w
}

var matchKinds = map[string]controlplane.MatchKind{
	"exact":    controlplane.MatchExact,
	"ternary":  controlplane.MatchTernary,
	"lpm":      controlplane.MatchLPM,
	"optional": controlplane.MatchOptional,
}

func toFieldMatch(m FieldMatch) (controlplane.FieldMatch, error) {
	kind, ok := matchKinds[m.Kind]
	if !ok {
		return controlplane.FieldMatch{}, fmt.Errorf("unknown match kind %q", m.Kind)
	}
	val, err := ToBV(m.Value)
	if err != nil {
		return controlplane.FieldMatch{}, err
	}
	out := controlplane.FieldMatch{Kind: kind, Value: val}
	// Per-kind shape checks: only the kind's own refinements may appear.
	switch kind {
	case controlplane.MatchExact:
		if m.Mask != nil || m.PrefixLen != 0 || m.Wildcard {
			return controlplane.FieldMatch{}, fmt.Errorf("exact match carries ternary/lpm/optional fields")
		}
	case controlplane.MatchTernary:
		if m.PrefixLen != 0 || m.Wildcard {
			return controlplane.FieldMatch{}, fmt.Errorf("ternary match carries lpm/optional fields")
		}
		if out.Mask, err = toOptBV(m.Mask); err != nil {
			return controlplane.FieldMatch{}, err
		}
	case controlplane.MatchLPM:
		if m.Mask != nil || m.Wildcard {
			return controlplane.FieldMatch{}, fmt.Errorf("lpm match carries ternary/optional fields")
		}
		if m.PrefixLen < 0 || m.PrefixLen > int(val.W) {
			return controlplane.FieldMatch{}, fmt.Errorf("lpm prefix length %d out of range [0,%d]", m.PrefixLen, val.W)
		}
		out.PrefixLen = m.PrefixLen
	case controlplane.MatchOptional:
		if m.Mask != nil || m.PrefixLen != 0 {
			return controlplane.FieldMatch{}, fmt.Errorf("optional match carries ternary/lpm fields")
		}
		out.Wildcard = m.Wildcard
	}
	return out, nil
}

func fromFieldMatch(m controlplane.FieldMatch) FieldMatch {
	out := FieldMatch{Kind: m.Kind.String(), Value: FromBV(m.Value)}
	switch m.Kind {
	case controlplane.MatchTernary:
		out.Mask = fromOptBV(m.Mask)
	case controlplane.MatchLPM:
		out.PrefixLen = m.PrefixLen
	case controlplane.MatchOptional:
		out.Wildcard = m.Wildcard
	}
	return out
}

func toEntry(e *TableEntry) (*controlplane.TableEntry, error) {
	out := &controlplane.TableEntry{Priority: e.Priority, Action: e.Action}
	if e.Action == "" {
		return nil, fmt.Errorf("entry has no action")
	}
	for i, m := range e.Matches {
		fm, err := toFieldMatch(m)
		if err != nil {
			return nil, fmt.Errorf("match %d: %w", i, err)
		}
		out.Matches = append(out.Matches, fm)
	}
	for i, p := range e.Params {
		v, err := ToBV(p)
		if err != nil {
			return nil, fmt.Errorf("param %d: %w", i, err)
		}
		out.Params = append(out.Params, v)
	}
	return out, nil
}

func fromEntry(e *controlplane.TableEntry) *TableEntry {
	out := &TableEntry{Priority: e.Priority, Action: e.Action}
	for _, m := range e.Matches {
		out.Matches = append(out.Matches, fromFieldMatch(m))
	}
	for _, p := range e.Params {
		out.Params = append(out.Params, FromBV(p))
	}
	return out
}

func toActionCall(a *ActionCall) (controlplane.ActionCall, error) {
	if a.Name == "" {
		return controlplane.ActionCall{}, fmt.Errorf("default action has no name")
	}
	out := controlplane.ActionCall{Name: a.Name}
	for i, p := range a.Params {
		v, err := ToBV(p)
		if err != nil {
			return controlplane.ActionCall{}, fmt.Errorf("param %d: %w", i, err)
		}
		out.Params = append(out.Params, v)
	}
	return out, nil
}

// ToUpdate validates and converts one wire update into engine
// vocabulary. Every field not belonging to the update's kind must be
// absent.
func ToUpdate(u *Update) (*controlplane.Update, error) {
	entryKind := func(kind controlplane.UpdateKind) (*controlplane.Update, error) {
		if u.Table == "" || u.Entry == nil {
			return nil, fmt.Errorf("%s update needs table and entry", u.Kind)
		}
		if u.Default != nil || u.ValueSet != "" || len(u.Members) > 0 || u.Register != "" || u.Fill != nil {
			return nil, fmt.Errorf("%s update carries unrelated fields", u.Kind)
		}
		e, err := toEntry(u.Entry)
		if err != nil {
			return nil, err
		}
		return &controlplane.Update{Kind: kind, Table: u.Table, Entry: e}, nil
	}
	switch u.Kind {
	case KindInsert:
		return entryKind(controlplane.InsertEntry)
	case KindModify:
		return entryKind(controlplane.ModifyEntry)
	case KindDelete:
		return entryKind(controlplane.DeleteEntry)
	case KindSetDefault:
		if u.Table == "" || u.Default == nil {
			return nil, fmt.Errorf("set-default update needs table and default")
		}
		if u.Entry != nil || u.ValueSet != "" || len(u.Members) > 0 || u.Register != "" || u.Fill != nil {
			return nil, fmt.Errorf("set-default update carries unrelated fields")
		}
		call, err := toActionCall(u.Default)
		if err != nil {
			return nil, err
		}
		return &controlplane.Update{Kind: controlplane.SetDefault, Table: u.Table, Default: call}, nil
	case KindSetValueSet:
		if u.ValueSet == "" {
			return nil, fmt.Errorf("set-value-set update needs value_set")
		}
		if u.Table != "" || u.Entry != nil || u.Default != nil || u.Register != "" || u.Fill != nil {
			return nil, fmt.Errorf("set-value-set update carries unrelated fields")
		}
		out := &controlplane.Update{Kind: controlplane.SetValueSet, ValueSet: u.ValueSet}
		for i, m := range u.Members {
			v, err := ToBV(m.Value)
			if err != nil {
				return nil, fmt.Errorf("member %d: %w", i, err)
			}
			mask, err := toOptBV(m.Mask)
			if err != nil {
				return nil, fmt.Errorf("member %d: %w", i, err)
			}
			out.Members = append(out.Members, controlplane.ValueSetMember{Value: v, Mask: mask})
		}
		return out, nil
	case KindFillRegister:
		if u.Register == "" || u.Fill == nil {
			return nil, fmt.Errorf("fill-register update needs register and fill")
		}
		if u.Table != "" || u.Entry != nil || u.Default != nil || u.ValueSet != "" || len(u.Members) > 0 {
			return nil, fmt.Errorf("fill-register update carries unrelated fields")
		}
		v, err := ToBV(*u.Fill)
		if err != nil {
			return nil, err
		}
		return &controlplane.Update{Kind: controlplane.FillRegister, Register: u.Register, Fill: v}, nil
	default:
		return nil, fmt.Errorf("unknown update kind %q", u.Kind)
	}
}

// FromUpdate converts an engine update to its wire form. It is total
// over updates the engine accepts (valid widths everywhere; a
// zero-width mask encodes as an omitted field).
func FromUpdate(u *controlplane.Update) Update {
	switch u.Kind {
	case controlplane.InsertEntry, controlplane.ModifyEntry, controlplane.DeleteEntry:
		return Update{Kind: u.Kind.String(), Table: u.Table, Entry: fromEntry(u.Entry)}
	case controlplane.SetDefault:
		call := ActionCall{Name: u.Default.Name}
		for _, p := range u.Default.Params {
			call.Params = append(call.Params, FromBV(p))
		}
		return Update{Kind: KindSetDefault, Table: u.Table, Default: &call}
	case controlplane.SetValueSet:
		out := Update{Kind: KindSetValueSet, ValueSet: u.ValueSet}
		for _, m := range u.Members {
			out.Members = append(out.Members, ValueSetMember{Value: FromBV(m.Value), Mask: fromOptBV(m.Mask)})
		}
		return out
	case controlplane.FillRegister:
		fill := FromBV(u.Fill)
		return Update{Kind: KindFillRegister, Register: u.Register, Fill: &fill}
	default:
		return Update{Kind: u.Kind.String()}
	}
}

// FromUpdates maps FromUpdate over a slice.
func FromUpdates(us []*controlplane.Update) []Update {
	out := make([]Update, len(us))
	for i, u := range us {
		out[i] = FromUpdate(u)
	}
	return out
}
