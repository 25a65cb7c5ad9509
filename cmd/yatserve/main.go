// Yatserve runs the mediator as a long-running network service: one
// demand-driven mediator behind an HTTP/JSON API.
//
//	POST /ask                        pattern query over the virtual target
//	GET  /functors                   Skolem functors of the target
//	GET  /stats                      mediator stats (?timing=0 for
//	                                 the deterministic document)
//	GET  /explain                    an ask under a request-scoped EXPLAIN
//	                                 profile (also POST /ask?explain=1):
//	                                 the served ask, memo and cache hits
//	                                 included, with what it cost here
//	GET  /healthz                    liveness + per-source health
//	POST /admin/reload               hot-swap a recompiled program (body =
//	                                 YATL source)
//	POST /admin/refresh-source/{name}  re-fetch one source
//
// SIGINT/SIGTERM trigger a graceful drain: in-flight asks get up to
// -drain to finish, then the process exits 0 on a clean drain.
//
// Usage:
//
//	yatserve [flags]
//
//	-addr         listen address (default :8080)
//	-program      a .yatl file, the name of a built-in library program
//	              (sgml2odmg, sgml2odmgTyped, sgml2odmgPrime, odmg2html),
//	              or selective:K — the synthetic K-view selective-ask
//	              program the load harness targets. A comma-separated
//	              list is a cross-mediator pipeline, fused into one
//	              program with §4 composition before serving — the
//	              intermediate models never exist
//	-input        input store: a file in YAT tree syntax, or
//	              brochures:N,S,P[,seed] — a synthetic store of N
//	              brochures with S suppliers each from a pool of P.
//	              Required unless -child children are given
//	-split        serve the input through N static sources instead of a
//	              pre-materialized store (exercises the source layer and
//	              per-source health; 0 = direct store)
//	-child        base URL of a remote yatserve child; repeatable. The
//	              server becomes a parent federation over the children,
//	              discovering each child's functors at startup;
//	              -program is then optional
//	-shard        i/n — serve only shard i (0-based) of the program's
//	              n-way plan: the closed sub-program for that shard's
//	              functor groups. This is how federation children are
//	              launched
//	-drain        graceful-drain deadline on shutdown (default 10s)
//	-snapshot-dir directory for the durable warm-start snapshot. On
//	              boot the server restores its mediator from
//	              <dir>/yatserve.snapshot.json when the snapshot's
//	              program+options hashes match (any mismatch boots
//	              cold); POST /admin/snapshot writes one on demand
//	-snapshot-on-drain  also write a snapshot during graceful shutdown
//	              (after in-flight asks drain; needs -snapshot-dir)
//	-quiet        suppress operational logs
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"yat/internal/federate"
	"yat/internal/library"
	"yat/internal/mediator"
	"yat/internal/serve"
	"yat/internal/source"
	"yat/internal/tree"
	"yat/internal/workload"
	"yat/internal/yatl"
)

// stringList collects a repeatable flag (-child URL -child URL ...).
type stringList []string

func (l *stringList) String() string     { return strings.Join(*l, ",") }
func (l *stringList) Set(v string) error { *l = append(*l, v); return nil }

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("yatserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addrFlag  = fs.String("addr", ":8080", "listen address")
		progFlag  = fs.String("program", "", "conversion program (.yatl file, built-in name, or selective:K)")
		inputFlag = fs.String("input", "", "input store (file, or brochures:N,S,P[,seed])")
		splitFlag = fs.Int("split", 0, "serve the input via N static sources (0 = direct store)")
		shardFlag = fs.String("shard", "", "i/n — serve only shard i of the program's n-way plan")
		drainFlag = fs.Duration("drain", 10*time.Second, "graceful-drain deadline on shutdown")
		snapFlag  = fs.String("snapshot-dir", "", "directory for the durable warm-start snapshot (empty = disabled)")
		snapDrain = fs.Bool("snapshot-on-drain", false, "write a snapshot during graceful shutdown (needs -snapshot-dir)")
		quietFlag = fs.Bool("quiet", false, "suppress operational logs")
	)
	var childFlag stringList
	fs.Var(&childFlag, "child", "base URL of a remote yatserve child (repeatable)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if len(childFlag) == 0 && (*progFlag == "" || *inputFlag == "") {
		fmt.Fprintln(stderr, "yatserve: -program and -input are required (unless -child children are given)")
		fs.Usage()
		return 2
	}

	progs, err := loadPrograms(*progFlag)
	if err != nil {
		fmt.Fprintln(stderr, "yatserve:", err)
		return 1
	}
	inputs, err := loadInputs(*inputFlag)
	if err != nil {
		fmt.Fprintln(stderr, "yatserve:", err)
		return 1
	}

	if *snapDrain && *snapFlag == "" {
		fmt.Fprintln(stderr, "yatserve: -snapshot-on-drain needs -snapshot-dir")
		return 2
	}
	cfg := serve.Config{
		DrainTimeout:    *drainFlag,
		SnapshotDir:     *snapFlag,
		SnapshotOnDrain: *snapDrain,
	}
	if len(progs) > 0 {
		cfg.Prog = progs[0]
	}
	logf := func(string, ...any) {}
	if !*quietFlag {
		logger := log.New(stderr, "", log.LstdFlags)
		cfg.Logf = logger.Printf
		logf = logger.Printf
	}
	var sources []source.Source
	if *splitFlag > 0 {
		if inputs == nil {
			fmt.Fprintln(stderr, "yatserve: -split needs an -input store to split")
			return 2
		}
		for i, part := range workload.SplitStore(inputs, *splitFlag) {
			sources = append(sources, source.Static(fmt.Sprintf("src%d", i+1), part))
		}
	}

	// A multi-program pipeline is fused up front, so every serving mode
	// below — plain mediator, one shard, a federation — works off the
	// one-step program. Fusing here (not in federate.New) also covers
	// -shard children, which serve a slice of the fused program.
	if len(progs) > 1 {
		fused, err := federate.FusePipeline(progs, nil)
		if err != nil {
			fmt.Fprintln(stderr, "yatserve:", err)
			return 1
		}
		logf("yatserve: fused %d-program pipeline into %q (%d rules)",
			len(progs), fused.Name, len(fused.Rules))
		progs = []*yatl.Program{fused}
		cfg.Prog = fused
	}

	if *shardFlag != "" {
		if cfg.Prog == nil {
			fmt.Fprintln(stderr, "yatserve: -shard needs a -program to slice")
			return 2
		}
		sub, owned, err := shardProgram(cfg.Prog, *shardFlag)
		if err != nil {
			fmt.Fprintln(stderr, "yatserve:", err)
			return 1
		}
		logf("yatserve: serving shard %s of %q: functors %s",
			*shardFlag, cfg.Prog.Name, strings.Join(owned, ","))
		cfg.Prog = sub
	}

	if len(childFlag) > 0 {
		// Parent federation over remote children: one router, the
		// children discovered live.
		fcfg := federate.Config{Programs: progs}
		for _, base := range childFlag {
			fcfg.Children = append(fcfg.Children, federate.Child{
				Asker: federate.NewClient(base, nil),
			})
		}
		fed, err := federate.New(fcfg)
		if err != nil {
			fmt.Fprintln(stderr, "yatserve:", err)
			return 1
		}
		logf("yatserve: federation over %d remote children: %s",
			len(childFlag), strings.Join(fed.Children(), ","))
		cfg.Askers = []mediator.Asker{fed}
	}

	if len(sources) > 0 {
		cfg.Sources = sources
	} else {
		cfg.Inputs = inputs
	}

	s, err := serve.New(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "yatserve:", err)
		return 1
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := s.ListenAndServe(ctx, *addrFlag); err != nil {
		fmt.Fprintln(stderr, "yatserve:", err)
		return 1
	}
	return 0
}

// loadPrograms resolves a -program spec: one program, or a
// comma-separated pipeline of them (fused by the caller).
func loadPrograms(spec string) ([]*yatl.Program, error) {
	if spec == "" {
		return nil, nil
	}
	var progs []*yatl.Program
	for _, part := range strings.Split(spec, ",") {
		// selective:K contains no comma; a bare comma-separated list is
		// unambiguous.
		p, err := library.ResolveProgram(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		progs = append(progs, p)
	}
	return progs, nil
}

// shardProgram parses an i/n spec and returns shard i's closed
// sub-program plus its owned functor groups.
func shardProgram(prog *yatl.Program, spec string) (*yatl.Program, []string, error) {
	idx, total, ok := strings.Cut(spec, "/")
	if !ok {
		return nil, nil, fmt.Errorf("bad -shard %q: want i/n", spec)
	}
	i, err1 := strconv.Atoi(idx)
	n, err2 := strconv.Atoi(total)
	if err1 != nil || err2 != nil || n < 1 || i < 0 || i >= n {
		return nil, nil, fmt.Errorf("bad -shard %q: want i/n with 0 <= i < n", spec)
	}
	plans := federate.PlanShards(prog, n)
	if i >= len(plans) {
		// n was clamped to the functor-group count; an out-of-range
		// child has nothing to serve.
		return nil, nil, fmt.Errorf("-shard %s: plan has only %d shards (functor groups)", spec, len(plans))
	}
	return plans[i].Prog, plans[i].Functors, nil
}

// loadInputs resolves an -input spec: empty (a parent federation,
// which reads none), a brochures:N,S,P[,seed] synthetic store, or a
// file in YAT tree syntax.
func loadInputs(spec string) (*tree.Store, error) {
	if spec == "" {
		return nil, nil
	}
	if args, ok := strings.CutPrefix(spec, "brochures:"); ok {
		parts := strings.Split(args, ",")
		if len(parts) != 3 && len(parts) != 4 {
			return nil, fmt.Errorf("bad spec %q: want brochures:N,S,P[,seed]", spec)
		}
		nums := make([]int, len(parts))
		for i, p := range parts {
			n, err := strconv.Atoi(strings.TrimSpace(p))
			if err != nil || n < 0 {
				return nil, fmt.Errorf("bad spec %q: %q is not a non-negative integer", spec, p)
			}
			nums[i] = n
		}
		seed := uint64(42)
		if len(nums) == 4 {
			seed = uint64(nums[3])
		}
		return workload.BrochureStore(nums[0], nums[1], nums[2], seed), nil
	}
	data, err := os.ReadFile(spec)
	if err != nil {
		return nil, err
	}
	return tree.ParseStore(string(data))
}
