/**
 * @file
 * Minimal JSON-object building and thread-safe JSONL streaming, used
 * by the sweep engine to export one self-describing record per
 * completed (scheme, benchmark) cell while the sweep is still
 * running. No external JSON dependency: records are flat objects of
 * strings, numbers and booleans, which this builder covers.
 */

#ifndef EQX_RUNNER_JSONL_HH
#define EQX_RUNNER_JSONL_HH

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>

namespace eqx {

/** Escape a string for inclusion in a JSON string literal. */
std::string jsonEscape(const std::string &s);

/** Builds one flat JSON object, preserving field insertion order. */
class JsonObject
{
  public:
    JsonObject &field(const std::string &key, const std::string &v);
    JsonObject &field(const std::string &key, const char *v);
    JsonObject &field(const std::string &key, double v);
    JsonObject &field(const std::string &key, std::uint64_t v);
    JsonObject &field(const std::string &key, std::int64_t v);
    JsonObject &field(const std::string &key, int v);
    JsonObject &field(const std::string &key, bool v);

    /** Splice every field of @p other in after this object's own
     *  (caller keeps keys disjoint; duplicates are not checked). */
    JsonObject &merge(const JsonObject &other);

    bool empty() const { return first_; }

    /** The finished object, e.g. {"a":1,"b":"x"}. */
    std::string str() const;

  private:
    void key(const std::string &k);

    std::string body_;
    bool first_ = true;
};

/**
 * Append-only JSONL file: one JSON object per line, each write
 * serialized by a mutex and flushed so a crashed or killed sweep
 * still leaves every record it wrote on disk.
 */
class JsonlWriter
{
  public:
    /** Opens (truncates) the file; fatal if it cannot be created. */
    explicit JsonlWriter(const std::string &path);
    ~JsonlWriter();

    JsonlWriter(const JsonlWriter &) = delete;
    JsonlWriter &operator=(const JsonlWriter &) = delete;

    /** Write one record (the object's str(), no trailing newline). */
    void write(const std::string &json_object);

    std::size_t lines() const;
    const std::string &path() const { return path_; }

  private:
    std::string path_;
    std::FILE *f_ = nullptr;
    mutable std::mutex mu_;
    std::size_t lines_ = 0;
};

} // namespace eqx

#endif // EQX_RUNNER_JSONL_HH
