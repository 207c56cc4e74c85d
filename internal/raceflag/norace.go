//go:build !race

// Package raceflag tells tests whether the race detector is compiled in, so
// allocation budgets — which its instrumentation inflates — can skip.
package raceflag

// Enabled reports that the binary was built with -race.
const Enabled = false
