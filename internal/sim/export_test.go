package sim

// RunProcessed is Run, also returning how many rounds the round loop
// processed one by one rather than as part of a quiet stretch.
var RunProcessed = run
