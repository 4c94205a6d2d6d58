#include "driver/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "common/log.hpp"

namespace awb::driver {

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v)) return "null";  // JSON has no inf/nan
    // std::to_chars is locale-independent by definition; snprintf("%.12g")
    // consults the process LC_NUMERIC and emits a decimal *comma* under
    // e.g. de_DE.UTF-8 — invalid JSON, and a break of the byte-identical
    // sweep-output guarantee. The general/12 form matches C-locale
    // "%.12g" byte for byte (locked by tests/test_driver.cpp).
    char buf[40];
    auto res = std::to_chars(buf, buf + sizeof(buf), v,
                             std::chars_format::general, 12);
    if (res.ec != std::errc()) panic("jsonNumber: to_chars failed");
    return std::string(buf, res.ptr);
}

void
Json::push(Json v)
{
    if (type_ == Type::Null) type_ = Type::Array;
    if (type_ != Type::Array) panic("Json::push on non-array");
    arr_.push_back(std::move(v));
}

Json &
Json::set(const std::string &key, Json v)
{
    Json &slot = (*this)[key];
    slot = std::move(v);
    return slot;
}

Json &
Json::operator[](const std::string &key)
{
    if (type_ == Type::Null) type_ = Type::Object;
    if (type_ != Type::Object) panic("Json::operator[] on non-object");
    for (auto &kv : obj_)
        if (kv.first == key) return kv.second;
    obj_.emplace_back(key, Json());
    return obj_.back().second;
}

std::size_t
Json::size() const
{
    switch (type_) {
      case Type::Array: return arr_.size();
      case Type::Object: return obj_.size();
      default: return 0;
    }
}

std::string
Json::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    if (indent > 0) out += '\n';
    return out;
}

void
Json::dumpTo(std::string &out, int indent, int depth) const
{
    const bool pretty = indent > 0;
    auto newline = [&](int d) {
        if (pretty) {
            out += '\n';
            out.append(static_cast<std::size_t>(indent * d), ' ');
        }
    };
    switch (type_) {
      case Type::Null:
        out += "null";
        break;
      case Type::Bool:
        out += bool_ ? "true" : "false";
        break;
      case Type::Int:
        if (uint_)
            out += std::to_string(static_cast<std::uint64_t>(int_));
        else
            out += std::to_string(int_);
        break;
      case Type::Double:
        out += jsonNumber(dbl_);
        break;
      case Type::String:
        out += '"';
        out += jsonEscape(str_);
        out += '"';
        break;
      case Type::Array:
        out += '[';
        for (std::size_t i = 0; i < arr_.size(); ++i) {
            if (i) out += ',';
            newline(depth + 1);
            arr_[i].dumpTo(out, indent, depth + 1);
        }
        if (!arr_.empty()) newline(depth);
        out += ']';
        break;
      case Type::Object:
        out += '{';
        for (std::size_t i = 0; i < obj_.size(); ++i) {
            if (i) out += ',';
            newline(depth + 1);
            out += '"';
            out += jsonEscape(obj_[i].first);
            out += "\":";
            if (pretty) out += ' ';
            obj_[i].second.dumpTo(out, indent, depth + 1);
        }
        if (!obj_.empty()) newline(depth);
        out += '}';
        break;
    }
}

void
writeJsonDoc(const Json &doc, const std::string &path,
             const std::string &what)
{
    const std::string rendered = doc.dump(2);
    if (path == "-") {
        std::printf("%s", rendered.c_str());
        return;
    }
    std::ofstream f(path);
    if (!f) fatal("cannot write " + path);
    f << rendered;
    std::printf("%s JSON written to %s\n", what.c_str(), path.c_str());
}

} // namespace awb::driver
