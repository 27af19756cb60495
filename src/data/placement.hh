/**
 * @file
 * Tier-to-shard placement for partitioned application graphs.
 *
 * In `Deployment::Partition` mode one application world is split
 * across `ParallelSimulator` shards: every microservice tier lives on
 * exactly one shard ("home shard") and calls between tiers on
 * different shards cross as engine mail with conservative
 * lookahead equal to the inter-shard wire latency. The placement map
 * is the declarative input: a list of explicit pins plus a
 * deterministic default assignment for everything unpinned.
 */

#ifndef UQSIM_DATA_PLACEMENT_HH
#define UQSIM_DATA_PLACEMENT_HH

#include <map>
#include <string>
#include <vector>

namespace uqsim::data {

/** One explicit tier-to-shard pin from the scenario surface. */
struct PlacementPin
{
    /** Service tier name ("posts-memcached"). */
    std::string tier;

    /** Home shard the tier is pinned to. */
    unsigned shard = 0;
};

/**
 * Compute the tier -> home-shard map for a partitioned world.
 *
 * @p tiers is every service name in graph insertion order, @p entry
 * the entry tier's name, and @p shards the shard count. Pins are
 * validated strictly: an unknown tier, a shard >= @p shards, or a
 * duplicate pin for the same tier is an error (message in @p error,
 * return false), never a silent skip.
 *
 * Assignment rule: pins win; the entry tier defaults to shard 0 (the
 * load generator injects there, so an unpinned entry must not move
 * between runs); every other unpinned tier is assigned round-robin
 * over insertion order. The result depends only on (tiers, pins,
 * shards), so a fixed scenario always yields the same placement.
 */
bool assignPlacement(const std::vector<std::string> &tiers,
                     const std::string &entry, unsigned shards,
                     const std::vector<PlacementPin> &pins,
                     std::map<std::string, unsigned> &homes,
                     std::string &error);

} // namespace uqsim::data

#endif // UQSIM_DATA_PLACEMENT_HH
