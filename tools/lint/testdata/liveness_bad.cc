// Fixture: a posted lambda capturing `this` without LivenessToken::Guard.
struct Owner {
  void Kick() {
    loop_->Post([this]() { ++count_; });
  }
  void KickLater() {
    loop_->ScheduleAfterMs(10, [this]() { ++count_; });
  }
  void KickSoon() {
    loop_->ScheduleAfterUs(250, [this]() { ++count_; });
  }
  EventLoop* loop_ = nullptr;
  int count_ = 0;
};
