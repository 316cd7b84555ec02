// IdleList unit tests: the keep-alive index the front-end shards and the
// back-end reap idle connections from. Explicit timestamps, no sockets.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/net/idle_list.h"

namespace lard {
namespace {

struct Entry : IdleHook {
  explicit Entry(int entry_id) : id(entry_id) {}
  int id;
};

// Pops everything (cutoff past any timestamp) and returns the ids in order.
std::vector<int> Drain(IdleList<Entry>* list) {
  std::vector<int> ids;
  list->PopExpired(INT64_MAX, [&](Entry* entry) { ids.push_back(entry->id); });
  return ids;
}

TEST(IdleListTest, TouchLinksAtTailAndSplicesLinkedEntries) {
  IdleList<Entry> list;
  Entry a(1), b(2), c(3);
  EXPECT_TRUE(list.empty());
  EXPECT_FALSE(a.idle_linked());
  list.Touch(&a, 10);
  list.Touch(&b, 20);
  list.Touch(&c, 30);
  EXPECT_EQ(list.front(), &a);
  // Activity on the oldest moves it behind the others.
  list.Touch(&a, 40);
  EXPECT_EQ(list.front(), &b);
  EXPECT_EQ(a.last_active_us(), 40);
  EXPECT_EQ(Drain(&list), (std::vector<int>{2, 3, 1}));
  EXPECT_TRUE(list.empty());
  EXPECT_FALSE(a.idle_linked());
}

TEST(IdleListTest, PopExpiredStopsAtFirstLiveEntry) {
  IdleList<Entry> list;
  Entry a(1), b(2), c(3);
  list.Touch(&a, 100);
  list.Touch(&b, 200);
  list.Touch(&c, 300);
  std::vector<int> popped;
  // Cutoff is inclusive: last active at or before 200 has expired.
  EXPECT_EQ(list.PopExpired(200, [&](Entry* entry) { popped.push_back(entry->id); }), 2u);
  EXPECT_EQ(popped, (std::vector<int>{1, 2}));
  EXPECT_FALSE(a.idle_linked());
  EXPECT_FALSE(b.idle_linked());
  EXPECT_TRUE(c.idle_linked());
  EXPECT_EQ(list.front(), &c);
  EXPECT_EQ(list.PopExpired(299, [](Entry*) { ADD_FAILURE(); }), 0u);
}

TEST(IdleListTest, ExpiredEntryMayBeTouchedBack) {
  // A busy connection found at the head gets its window restarted.
  IdleList<Entry> list;
  Entry a(1), b(2);
  list.Touch(&a, 100);
  list.Touch(&b, 150);
  std::vector<int> popped;
  list.PopExpired(200, [&](Entry* entry) {
    popped.push_back(entry->id);
    if (entry->id == 1) {
      list.Touch(entry, 500);
    }
  });
  EXPECT_EQ(popped, (std::vector<int>{1, 2}));
  EXPECT_EQ(list.front(), &a);
  EXPECT_EQ(Drain(&list), (std::vector<int>{1}));
}

TEST(IdleListTest, UnlinkAndDestructionLeaveTheListConsistent) {
  IdleList<Entry> list;
  Entry a(1), c(3);
  list.Touch(&a, 1);
  {
    Entry b(2);
    list.Touch(&b, 2);
    list.Touch(&c, 3);
    list.Unlink(&a);
    list.Unlink(&a);  // unlinking twice is a no-op
    EXPECT_FALSE(a.idle_linked());
  }  // b destroyed while linked: it unlinks itself
  EXPECT_EQ(list.front(), &c);
  EXPECT_EQ(Drain(&list), (std::vector<int>{3}));
}

TEST(IdleListTest, ListDestructionDetachesItsEntries) {
  Entry a(1);
  {
    IdleList<Entry> list;
    list.Touch(&a, 1);
  }
  EXPECT_FALSE(a.idle_linked());  // and a's own destructor has nothing to do
}

}  // namespace
}  // namespace lard
