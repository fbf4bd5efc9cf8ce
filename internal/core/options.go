package core

import (
	"gent/internal/discovery"
	"gent/internal/matrix"
)

// Option adjusts one run's Config. Options layer over a base configuration —
// the explicit cfg of ReclaimContext, or the session default of
// Reclaimer.ReclaimContext / ReclaimStream — so ablations and parameter
// sweeps tweak one knob per call instead of hand-copying Config structs.
type Option func(*Config)

// applyOptions layers opts over base and returns the resulting per-call
// configuration; base is not mutated.
func applyOptions(base Config, opts []Option) Config {
	cfg := base
	for _, o := range opts {
		if o != nil {
			o(&cfg)
		}
	}
	return cfg
}

// WithEncoding selects the matrix encoding (ThreeValued is Gen-T's;
// TwoValued is the contradiction-blind ablation).
func WithEncoding(enc matrix.Encoding) Option {
	return func(c *Config) { c.Encoding = enc }
}

// WithTraverseWorkers bounds the Matrix Traversal engine's scoring pool;
// n <= 0 uses GOMAXPROCS.
func WithTraverseWorkers(n int) Option {
	return func(c *Config) { c.TraverseWorkers = n }
}

// WithDiscovery replaces the discovery options (τ, caps, LSH first stage).
func WithDiscovery(opts discovery.Options) Option {
	return func(c *Config) { c.Discovery = opts }
}

// WithDiscoveryStrategy selects the discovery channel(s) — syntactic (the
// default), semantic, or hybrid — without replacing the other discovery
// options.
func WithDiscoveryStrategy(s discovery.Strategy) Option {
	return func(c *Config) { c.Discovery.Strategy = s }
}

// WithObserver attaches a ProgressObserver to the run.
func WithObserver(obs ProgressObserver) Option {
	return func(c *Config) { c.Observer = obs }
}

// WithoutTraversal integrates every candidate without Matrix Traversal — the
// "no pruning" ablation.
func WithoutTraversal() Option {
	return func(c *Config) { c.SkipTraversal = true }
}

// WithIndexShards sets the probe fan-out width of the inverted substrate a
// Reclaimer session builds; ≤ 1 probes inline (see Config.IndexShards).
// Session-level: it takes effect through the Config passed to NewReclaimer,
// not per call (the substrate is shared across an epoch's queries).
func WithIndexShards(n int) Option {
	return func(c *Config) { c.IndexShards = n }
}

// WithKeyMaxArity bounds key mining when the Source has no declared key.
func WithKeyMaxArity(n int) Option {
	return func(c *Config) { c.KeyMaxArity = n }
}

// WithRequireCandidates makes an empty discovery result an error
// (ErrNoCandidates, phase-tagged PhaseDiscovery) instead of an all-null
// reclamation — the behavior a server returning "not found" wants.
func WithRequireCandidates() Option {
	return func(c *Config) { c.RequireCandidates = true }
}
