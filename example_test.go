package goflay_test

import (
	"context"
	"fmt"
	"log"
	"time"

	goflay "repro"
	"repro/internal/progs"
)

// fig3Insert is the running example's table entry: a ternary match on
// the ethernet type steering to the "set" action.
func fig3Insert(i uint64) *goflay.Update {
	return &goflay.Update{
		Kind:  goflay.InsertEntry,
		Table: "Ingress.eth_table",
		Entry: &goflay.TableEntry{
			Matches: []goflay.FieldMatch{{
				Kind:  goflay.MatchTernary,
				Value: goflay.NewBV(48, 0x100+i),
				Mask:  goflay.NewBV2(48, 0, 0xFFFFFFFFFFFF),
			}},
			Action: "set",
			Params: []goflay.BV{goflay.NewBV(16, i)},
		},
	}
}

// Open with functional options — the current configuration surface.
// Each With* option adjusts one knob; omitted knobs keep their
// defaults.
func ExampleOpen() {
	p := progs.Fig3()
	pipe, err := goflay.Open(p.Name, p.Source,
		goflay.WithQuality(goflay.QualityFull),
		goflay.WithOverapproxThreshold(100),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer pipe.Close()

	d := pipe.Apply(fig3Insert(1))
	fmt.Println(d.Kind, pipe.Entries("Ingress.eth_table"))
	// Output: recompile 1
}

// The deprecated Options struct still works wherever an Option is
// accepted: it applies itself wholesale, so existing positional
// call sites keep compiling unchanged. New code should prefer the
// functional options of ExampleOpen.
func ExampleOptions() {
	p := progs.Fig3()
	pipe, err := goflay.Open(p.Name, p.Source, goflay.WithOverapproxThreshold(100))
	if err != nil {
		log.Fatal(err)
	}
	defer pipe.Close()

	d := pipe.Apply(fig3Insert(1))
	fmt.Println(d.Kind, len(pipe.Tables()))
	// Output: recompile 1
}

// ApplyCtx attaches a latency budget to one update. Within budget the
// engine answers precisely; when the projected precise cost would blow
// the deadline it degrades the table to the overapproximated
// assignment instead (Decision.Degraded reports which happened), and
// the background repair loop promotes it back during quiescence.
func ExamplePipeline_ApplyCtx() {
	p := progs.Fig3()
	pipe, err := goflay.Open(p.Name, p.Source)
	if err != nil {
		log.Fatal(err)
	}
	defer pipe.Close()

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	d := pipe.ApplyCtx(ctx, fig3Insert(1))
	fmt.Println(d.Kind, d.Degraded)
	// Output: recompile false
}
