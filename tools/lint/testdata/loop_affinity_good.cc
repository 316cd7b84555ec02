// Fixture: asserting loop affinity before touching LoopShard state passes.
void FrontEnd::KeepAffinity(LoopShard* shard) {
  shard->loop->AssertInLoopThread();
  shard->conns.clear();
  shard->next_conn_id++;
  shard->idle_sweep_armed = false;
}
