#include "runner/jsonl.hh"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "common/logging.hh"

namespace eqx {

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c) & 0xff);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

void
JsonObject::key(const std::string &k)
{
    if (!first_)
        body_ += ',';
    first_ = false;
    body_ += '"';
    body_ += jsonEscape(k);
    body_ += "\":";
}

JsonObject &
JsonObject::field(const std::string &k, const std::string &v)
{
    key(k);
    body_ += '"';
    body_ += jsonEscape(v);
    body_ += '"';
    return *this;
}

JsonObject &
JsonObject::field(const std::string &k, const char *v)
{
    return field(k, std::string(v));
}

JsonObject &
JsonObject::field(const std::string &k, double v)
{
    key(k);
    if (std::isfinite(v)) {
        char buf[40];
        // to_chars(general, 17) round-trips every finite double and
        // emits exactly the C-locale %.17g bytes regardless of
        // LC_NUMERIC — JSONL output must never grow a comma decimal.
        auto r = std::to_chars(buf, buf + sizeof(buf), v,
                               std::chars_format::general, 17);
        body_.append(buf, r.ptr);
    } else {
        body_ += "null"; // JSON has no NaN/Inf
    }
    return *this;
}

JsonObject &
JsonObject::field(const std::string &k, std::uint64_t v)
{
    key(k);
    body_ += std::to_string(v);
    return *this;
}

JsonObject &
JsonObject::field(const std::string &k, std::int64_t v)
{
    key(k);
    body_ += std::to_string(v);
    return *this;
}

JsonObject &
JsonObject::field(const std::string &k, int v)
{
    return field(k, static_cast<std::int64_t>(v));
}

JsonObject &
JsonObject::field(const std::string &k, bool v)
{
    key(k);
    body_ += v ? "true" : "false";
    return *this;
}

JsonObject &
JsonObject::merge(const JsonObject &other)
{
    if (other.first_)
        return *this;
    if (!first_)
        body_ += ',';
    first_ = false;
    body_ += other.body_;
    return *this;
}

std::string
JsonObject::str() const
{
    return "{" + body_ + "}";
}

JsonlWriter::JsonlWriter(const std::string &path) : path_(path)
{
    f_ = std::fopen(path.c_str(), "w");
    if (!f_)
        eqx_fatal("cannot open '", path, "' for JSONL streaming");
}

JsonlWriter::~JsonlWriter()
{
    if (f_)
        std::fclose(f_);
}

void
JsonlWriter::write(const std::string &json_object)
{
    std::lock_guard<std::mutex> lock(mu_);
    std::fputs(json_object.c_str(), f_);
    std::fputc('\n', f_);
    std::fflush(f_);
    ++lines_;
}

std::size_t
JsonlWriter::lines() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return lines_;
}

} // namespace eqx
