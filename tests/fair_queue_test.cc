/**
 * @file
 * Unit tests for the deficit-weighted fair queue underneath the DSE
 * service scheduler (src/service/fair_queue.h): weighted slot grants,
 * deficit forfeiture on drain (no banking), and FIFO order within a
 * tenant.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/service/fair_queue.h"

namespace hida {
namespace {

std::vector<int>
popAll(WeightedFairQueue<int>& queue)
{
    std::vector<int> order;
    int item = 0;
    while (queue.pop(&item))
        order.push_back(item);
    return order;
}

TEST(WeightedFairQueueTest, SingleTenantIsFifo)
{
    WeightedFairQueue<int> queue;
    for (int i = 1; i <= 4; ++i)
        queue.push("a", i);
    EXPECT_EQ(queue.size(), 4u);
    EXPECT_EQ(popAll(queue), (std::vector<int>{1, 2, 3, 4}));
    EXPECT_TRUE(queue.empty());
}

TEST(WeightedFairQueueTest, WeightGrantsThatManySlotsPerRotation)
{
    // a has weight 2: each ring rotation serves two of a's items, then
    // one of b's — a's backlog cannot push b's next item more than one
    // rotation away.
    WeightedFairQueue<int> queue;
    queue.setWeight("a", 2);
    for (int i = 1; i <= 4; ++i)
        queue.push("a", 10 + i);
    queue.push("b", 21);
    queue.push("b", 22);
    EXPECT_EQ(popAll(queue),
              (std::vector<int>{11, 12, 21, 13, 14, 22}));
}

TEST(WeightedFairQueueTest, HeavyTenantCannotStarveLightOne)
{
    WeightedFairQueue<int> queue;
    for (int i = 0; i < 100; ++i)
        queue.push("heavy", i);
    queue.push("light", 1000);
    // Unit weights: the light item is the second pop, not the 101st.
    int item = 0;
    ASSERT_TRUE(queue.pop(&item));
    EXPECT_EQ(item, 0);
    ASSERT_TRUE(queue.pop(&item));
    EXPECT_EQ(item, 1000);
}

TEST(WeightedFairQueueTest, DrainedTenantForfeitsLeftoverDeficit)
{
    // a (weight 3) drains after one item: the leftover quantum must not
    // be banked, or an idle tenant could later burst past the others.
    WeightedFairQueue<int> queue;
    queue.setWeight("a", 3);
    queue.push("a", 1);
    queue.push("b", 2);
    int item = 0;
    ASSERT_TRUE(queue.pop(&item));
    EXPECT_EQ(item, 1);
    // Re-arming a: a fresh visit grants exactly the weight again, but b
    // — already on the ring — goes first.
    queue.push("a", 3);
    queue.push("a", 4);
    queue.push("a", 5);
    queue.push("a", 6);
    EXPECT_EQ(popAll(queue), (std::vector<int>{2, 3, 4, 5, 6}));
}

} // namespace
} // namespace hida
