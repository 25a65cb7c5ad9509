package engine

import (
	"yat/internal/pattern"
	"yat/internal/trace"
)

// Option configures a run through the functional-options pattern:
//
//	engine.Run(prog, inputs, engine.WithRegistry(reg), engine.WithTrace(p))
//
// A literal *Options also satisfies Option (it replaces the whole
// configuration), so call sites written against the older
// `Run(prog, inputs, opts *Options)` signature — including
// `Run(prog, inputs, nil)` — keep compiling and behaving identically.
type Option interface {
	// Apply writes the option into the configuration being built.
	Apply(*Options)
}

// optionFunc adapts a closure to the Option interface.
type optionFunc func(*Options)

// Apply implements Option.
func (f optionFunc) Apply(o *Options) { f(o) }

// Apply makes an *Options value usable wherever an Option is expected:
// it replaces the configuration wholesale. A nil receiver (the
// `Run(prog, inputs, nil)` idiom) applies the defaults. This is
// load-bearing, not legacy: the mediator folds its option list once
// at construction and hands the folded value back on every run.
func (o *Options) Apply(dst *Options) {
	if o == nil {
		return
	}
	*dst = *o
}

// mediatorOnly is implemented by options that configure a layer above
// the engine (the mediator's WithDemandDriven and WithSources). Their
// Apply writes nothing, so a plain engine run receiving one would
// silently ignore it; NewOptions records the name instead, and the run
// surfaces it in Result.Warnings so the misconfiguration is visible.
type mediatorOnly interface {
	MediatorOnly() string
}

// NewOptions folds a list of options into a fresh configuration.
// Nil options are skipped, later options win.
func NewOptions(opts ...Option) *Options {
	o := &Options{}
	for _, opt := range opts {
		if opt == nil {
			continue
		}
		if mo, ok := opt.(mediatorOnly); ok {
			o.ignored = append(o.ignored, mo.MediatorOnly())
		}
		opt.Apply(o)
	}
	return o
}

// WithRegistry supplies the external function/predicate registry.
func WithRegistry(reg *Registry) Option {
	return optionFunc(func(o *Options) { o.Registry = reg })
}

// WithModel merges an extra model environment into the run's
// pattern-domain checks.
func WithModel(m *pattern.Model) Option {
	return optionFunc(func(o *Options) { o.Model = m })
}

// WithTrace attaches a trace sink to the run. Nil disables tracing at
// zero cost.
func WithTrace(s trace.Sink) Option {
	return optionFunc(func(o *Options) { o.Trace = s })
}

// WithMaxRounds bounds the activation fixpoint (0 = default 10000).
func WithMaxRounds(n int) Option {
	return optionFunc(func(o *Options) { o.MaxRounds = n })
}

// WithNonDetWarn downgrades run-time non-determinism from an error to
// a warning.
func WithNonDetWarn(on bool) Option {
	return optionFunc(func(o *Options) { o.NonDetWarn = on })
}

// WithCheckOutputs turns on the run-time output type checker against
// the given model.
func WithCheckOutputs(m *pattern.Model) Option {
	return optionFunc(func(o *Options) { o.CheckOutputs = m })
}

// WithDisableSafety skips the §3.4 static cycle check.
func WithDisableSafety(disable bool) Option {
	return optionFunc(func(o *Options) { o.DisableSafety = disable })
}
