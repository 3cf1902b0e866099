#include "sweep/cell_cache.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <sys/stat.h>
#include <unistd.h>

#include "common/logging.hh"

namespace eqx {

namespace {

/** mkdir -p for the two-level layouts used here. */
bool
ensureDir(const std::string &path)
{
    if (::mkdir(path.c_str(), 0777) == 0 || errno == EEXIST)
        return true;
    if (errno != ENOENT)
        return false;
    auto slash = path.find_last_of('/');
    if (slash == std::string::npos || slash == 0)
        return false;
    if (!ensureDir(path.substr(0, slash)))
        return false;
    return ::mkdir(path.c_str(), 0777) == 0 || errno == EEXIST;
}

bool
readWholeFile(const std::string &path, std::string &out)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return false;
    out.clear();
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out.append(buf, n);
    bool ok = !std::ferror(f);
    std::fclose(f);
    return ok;
}

} // namespace

CellCache::CellCache(std::string dir) : dir_(std::move(dir))
{
    eqx_assert(!dir_.empty(), "cell cache needs a directory");
    while (dir_.size() > 1 && dir_.back() == '/')
        dir_.pop_back();
    if (!ensureDir(dir_))
        eqx_fatal("cannot create cell cache directory '", dir_,
                  "': ", std::strerror(errno));
}

std::string
CellCache::pathFor(const CellDigest &digest) const
{
    std::string hex = digest.hex();
    return dir_ + '/' + hex.substr(0, 2) + '/' + hex + ".json";
}

bool
CellCache::lookup(const CellDigest &digest, CellResult &out)
{
    std::string text;
    if (!readWholeFile(pathFor(digest), text)) {
        misses_.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    // Strip the trailing newline the writer appends.
    while (!text.empty() && (text.back() == '\n' || text.back() == '\r'))
        text.pop_back();

    CellRecord rec;
    if (!parseCellRecord(text, rec) || rec.digest != digest) {
        // Wrong schema, torn write that dodged the rename discipline,
        // or a record filed under the wrong address: all corrupt.
        corrupt_.fetch_add(1, std::memory_order_relaxed);
        misses_.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    out = std::move(rec.cell);
    hits_.fetch_add(1, std::memory_order_relaxed);
    return true;
}

void
CellCache::store(const CellDigest &digest, const CellResult &cell)
{
    if (cell.failed)
        return;

    CellRecord rec;
    rec.digest = digest;
    rec.cell = cell;
    std::string line = cellRecordLine(rec);

    std::string path = pathFor(digest);
    auto slash = path.find_last_of('/');
    if (!ensureDir(path.substr(0, slash))) {
        eqx_warn("cell cache: cannot create shard dir for ", path);
        return;
    }

    // Unique temp name per (process, store) so concurrent writers of
    // the same digest never interleave; rename makes it visible whole.
    std::string tmp = path + ".tmp." + std::to_string(::getpid()) + '.' +
                      std::to_string(tmpSeq_.fetch_add(1));
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f) {
        eqx_warn("cell cache: cannot open ", tmp, ": ",
                 std::strerror(errno));
        return;
    }
    bool ok = std::fputs(line.c_str(), f) >= 0 && std::fputc('\n', f) >= 0;
    ok = (std::fclose(f) == 0) && ok;
    if (!ok || ::rename(tmp.c_str(), path.c_str()) != 0) {
        eqx_warn("cell cache: failed to publish ", path, ": ",
                 std::strerror(errno));
        ::unlink(tmp.c_str());
        return;
    }
    stores_.fetch_add(1, std::memory_order_relaxed);
}

void
CellCache::exportStats(StatGroup &g) const
{
    g.set("cache.hits", static_cast<double>(hits()));
    g.set("cache.misses", static_cast<double>(misses()));
    g.set("cache.corrupt", static_cast<double>(corrupt()));
    g.set("cache.stores", static_cast<double>(stores()));
}

} // namespace eqx
