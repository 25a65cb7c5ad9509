package engine

import (
	"yat/internal/pattern"
	"yat/internal/trace"
)

// Option configures a run through the functional-options pattern:
//
//	engine.Run(prog, inputs, engine.WithRegistry(reg), engine.WithTrace(p))
type Option interface {
	// Apply writes the option into the configuration being built.
	Apply(*Options)
}

// optionFunc adapts a closure to the Option interface.
type optionFunc func(*Options)

// Apply implements Option.
func (f optionFunc) Apply(o *Options) { f(o) }

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

// WithTrace attaches a trace sink to the run. Nil disables tracing at
// zero cost.
func WithTrace(s trace.Sink) Option {
	return optionFunc(func(o *Options) { o.Trace = s })
}

// WithCheckOutputs turns on the run-time output type checker against
// the given model.
func WithCheckOutputs(m *pattern.Model) Option {
	return optionFunc(func(o *Options) { o.CheckOutputs = m })
}
