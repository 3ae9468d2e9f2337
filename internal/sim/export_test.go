package sim

// CheckpointOf exposes the checkpoint rule to the external tests, which
// hold CutAtCycle equal to a count over a recorded trace.
var CheckpointOf = checkpoint
