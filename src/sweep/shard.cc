#include "sweep/shard.hh"

#include <climits>
#include <cstdlib>

#include "runner/stream_seed.hh"

namespace eqx {

bool
parseShardSpec(const std::string &spec, int &index, int &count)
{
    auto slash = spec.find('/');
    if (slash == std::string::npos || slash == 0 ||
        slash + 1 >= spec.size())
        return false;
    for (std::size_t i = 0; i < spec.size(); ++i)
        if (i != slash && (spec[i] < '0' || spec[i] > '9'))
            return false;
    // All digits, so strtoll can only overflow (LLONG_MAX), which the
    // INT_MAX bound rejects along with every other value an int
    // cannot hold.
    long long i = std::strtoll(spec.substr(0, slash).c_str(), nullptr, 10);
    long long n = std::strtoll(spec.substr(slash + 1).c_str(), nullptr, 10);
    if (n < 1 || n > INT_MAX || i < 0 || i >= n)
        return false;
    index = static_cast<int>(i);
    count = static_cast<int>(n);
    return true;
}

int
cellShard(std::uint64_t seed, const std::string &scheme,
          const std::string &benchmark, int shard_count)
{
    if (shard_count <= 1)
        return 0;
    std::uint64_t h = deriveStreamSeed(seed, "shard", scheme, benchmark);
    return static_cast<int>(h % static_cast<std::uint64_t>(shard_count));
}

} // namespace eqx
