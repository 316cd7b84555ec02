// Fixture: FrontEnd method touching LoopShard state without asserting loop
// affinity first.
void FrontEnd::BreakAffinity(LoopShard* shard) {
  shard->conns.clear();
}

void FrontEnd::BreakIdleAffinity(LoopShard* shard) {
  shard->idle_sweep_armed = false;
}
