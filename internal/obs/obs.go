// Package obs is the repository's dependency-light observability layer:
// a metrics registry (counters, gauges, histograms) with an
// expvar-compatible JSON snapshot and Prometheus text exposition, a
// Chrome/Perfetto trace-event builder, a typed progress-event stream with a
// live terminal renderer, and Ordered, the in-order worker pool that runs
// Session.Execute's cells and the autotuner's grid points and emits their
// progress events.
//
// The package deliberately imports nothing from the rest of the module so
// every layer (sim engine, report cache, tune search, fleet simulator,
// CLIs) can publish into it without import cycles.
package obs
