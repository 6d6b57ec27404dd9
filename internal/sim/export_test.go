package sim

// RefRunDriver exposes the reference driver loop to the external tests,
// which build their drivers through packages that import sim.
var RefRunDriver = refRunDriver
