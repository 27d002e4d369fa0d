#include "cluster/aggregate.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <unordered_map>

namespace geovalid::cluster {
namespace {

void append_number(std::string& out, double v) {
  // Integral values (every counter sum) print without a fraction so the
  // merged exposition looks like the per-backend ones.
  if (v == std::floor(v) && std::fabs(v) < 9.0e15) {
    out += std::to_string(static_cast<long long>(v));
    return;
  }
  char buf[40];
  const auto [p, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, static_cast<std::size_t>(p - buf));
}

/// One family's merged state. Samples keep first-seen order: the obs
/// exporter emits histogram buckets in increasing `le` order, and a
/// lexical re-sort would scramble them.
struct Family {
  std::string help;
  std::string type;
  std::vector<std::pair<std::string, double>> samples;  // key -> sum
  std::unordered_map<std::string, std::size_t> index;
};

using FamilyMap = std::map<std::string, Family>;

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' ||
                        s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

void parse_exposition(std::string_view text, FamilyMap& families) {
  std::string current;  // family owning subsequent samples
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t eol = text.find('\n', pos);
    std::string_view line = text.substr(
        pos, eol == std::string_view::npos ? std::string_view::npos
                                           : eol - pos);
    pos = eol == std::string_view::npos ? text.size() : eol + 1;
    line = trim(line);
    if (line.empty()) continue;

    if (line.rfind("# HELP ", 0) == 0 || line.rfind("# TYPE ", 0) == 0) {
      const bool is_help = line[2] == 'H';
      line.remove_prefix(7);
      const std::size_t sp = line.find(' ');
      const std::string name(line.substr(0, sp));
      if (name.empty()) continue;
      Family& f = families[name];
      const std::string_view rest =
          sp == std::string_view::npos ? std::string_view{}
                                       : trim(line.substr(sp + 1));
      if (is_help) {
        if (f.help.empty()) f.help = std::string(rest);
      } else {
        if (f.type.empty()) f.type = std::string(rest);
        current = name;
      }
      continue;
    }
    if (line.front() == '#') continue;

    // Sample: `name{labels} value` or `name value`. The value is the
    // suffix after the last space outside the label braces — label
    // values may themselves contain spaces.
    const std::size_t brace = line.find('{');
    std::size_t value_at = std::string_view::npos;
    if (brace != std::string_view::npos) {
      const std::size_t close = line.rfind('}');
      if (close == std::string_view::npos || close < brace) continue;
      value_at = line.find(' ', close);
    } else {
      value_at = line.find(' ');
    }
    if (value_at == std::string_view::npos) continue;
    const std::string key(trim(line.substr(0, value_at)));
    const std::string value_str(trim(line.substr(value_at + 1)));
    if (key.empty() || value_str.empty()) continue;
    const double value = std::strtod(value_str.c_str(), nullptr);

    // Attribute to the family announced by the last # TYPE header; a
    // headerless sample (not produced by our exporter) becomes its own
    // family keyed by its base name.
    const std::string base =
        key.substr(0, brace == std::string_view::npos ? key.find(' ')
                                                      : brace);
    std::string family_name = current;
    if (family_name.empty() || base.rfind(family_name, 0) != 0) {
      family_name = base;
    }
    Family& f = families[family_name];
    const auto [it, inserted] = f.index.emplace(key, f.samples.size());
    if (inserted) {
      f.samples.emplace_back(key, value);
    } else {
      f.samples[it->second].second += value;
    }
  }
}

std::string render(const FamilyMap& families, std::string_view prefix,
                   bool keep_matching = true) {
  std::string out;
  for (const auto& [name, f] : families) {
    const bool matches = !prefix.empty() && name.rfind(prefix, 0) == 0;
    if (keep_matching ? (!prefix.empty() && !matches) : matches) continue;
    if (f.samples.empty() && f.help.empty() && f.type.empty()) continue;
    if (!f.help.empty()) {
      out += "# HELP ";
      out += name;
      out += ' ';
      out += f.help;
      out += '\n';
    }
    if (!f.type.empty()) {
      out += "# TYPE ";
      out += name;
      out += ' ';
      out += f.type;
      out += '\n';
    }
    for (const auto& [key, value] : f.samples) {
      out += key;
      out += ' ';
      append_number(out, value);
      out += '\n';
    }
  }
  return out;
}

/// Minimal recursive-descent scan of a JSON object tree, collecting
/// string and number leaves. Only the grammar serve emits is accepted.
class JsonScanner {
 public:
  explicit JsonScanner(std::string_view text) : text_(text) {}

  std::vector<JsonLeaf> run() {
    skip_ws();
    object("");
    skip_ws();
    if (pos_ != text_.size()) fail("trailing bytes after object");
    return std::move(out_);
  }

 private:
  [[noreturn]] void fail(const char* what) const {
    throw std::invalid_argument(std::string("summary JSON: ") + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() const {
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  void expect(char c) {
    if (peek() != c) fail("unexpected byte");
    ++pos_;
  }

  std::string string_token() {
    expect('"');
    std::string s;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) fail("truncated escape");
      }
      s += text_[pos_++];
    }
    expect('"');
    return s;
  }

  void object(const std::string& prefix) {
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return;
    }
    while (true) {
      skip_ws();
      const std::string key = string_token();
      skip_ws();
      expect(':');
      skip_ws();
      const std::string path =
          prefix.empty() ? key : prefix + "." + key;
      value(path);
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return;
    }
  }

  void value(const std::string& path) {
    const char c = peek();
    if (c == '{') {
      object(path);
    } else if (c == '"') {
      out_.push_back({path, string_token(), std::nullopt});
    } else if (c == '[') {
      fail("arrays are not supported");
    } else if (c == 't' || c == 'f' || c == 'n') {
      while (pos_ < text_.size() &&
             std::isalpha(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    } else {
      const char* begin = text_.data() + pos_;
      double v = 0.0;
      const auto [end, ec] =
          std::from_chars(begin, text_.data() + text_.size(), v);
      if (ec != std::errc{}) fail("expected a value");
      pos_ += static_cast<std::size_t>(end - begin);
      out_.push_back({path, std::string(begin, end), v});
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::vector<JsonLeaf> out_;
};

}  // namespace

std::string merge_prometheus(const std::vector<std::string>& texts) {
  FamilyMap families;
  for (const std::string& text : texts) parse_exposition(text, families);
  return render(families, {});
}

std::string filter_prometheus(std::string_view text,
                              std::string_view family_prefix) {
  FamilyMap families;
  parse_exposition(text, families);
  return render(families, family_prefix);
}

std::string strip_prometheus(std::string_view text,
                             std::string_view family_prefix) {
  FamilyMap families;
  parse_exposition(text, families);
  return render(families, family_prefix, /*keep_matching=*/false);
}

std::vector<JsonLeaf> flatten_json(std::string_view json) {
  return JsonScanner(json).run();
}

std::vector<std::pair<std::string, double>> flatten_json_numbers(
    std::string_view json) {
  std::vector<std::pair<std::string, double>> out;
  for (JsonLeaf& leaf : flatten_json(json)) {
    if (leaf.number) out.emplace_back(std::move(leaf.path), *leaf.number);
  }
  return out;
}

std::string merge_summaries(const std::vector<std::string>& bodies) {
  if (bodies.empty()) {
    throw std::invalid_argument("merge_summaries: no bodies");
  }

  // The first body fixes field order and structure; later bodies fold
  // their values in by path.
  const std::vector<std::pair<std::string, double>> shape =
      flatten_json_numbers(bodies.front());
  std::unordered_map<std::string, double> sums;
  std::unordered_map<std::string, double> weighted;  // sum(mean * weight)
  const auto weight_path = [](const std::string& path) -> const char* {
    if (path == "prevalence.mean_extraneous_ratio") {
      return "prevalence.users_with_checkins";
    }
    if (path == "burstiness.mean") return "burstiness.users_with_gaps";
    return nullptr;
  };

  for (const std::string& body : bodies) {
    const auto flat = flatten_json_numbers(body);
    std::unordered_map<std::string, double> doc;
    doc.reserve(flat.size());
    for (const auto& [path, v] : flat) doc.emplace(path, v);
    for (const auto& [path, v] : flat) {
      sums[path] += v;
      if (const char* wp = weight_path(path)) {
        const auto w = doc.find(wp);
        weighted[path] += v * (w == doc.end() ? 0.0 : w->second);
      }
    }
  }

  std::string out = "{\"backends\":";
  append_number(out, static_cast<double>(bodies.size()));
  std::vector<std::string> stack;  // open object path segments
  for (const auto& [path, unused] : shape) {
    (void)unused;
    std::vector<std::string> parts;
    std::size_t start = 0;
    while (true) {
      const std::size_t dot = path.find('.', start);
      parts.push_back(path.substr(start, dot - start));
      if (dot == std::string::npos) break;
      start = dot + 1;
    }
    // parts = [...objects..., leaf]; close and open braces to match.
    std::size_t common = 0;
    while (common < stack.size() && common + 1 < parts.size() &&
           stack[common] == parts[common]) {
      ++common;
    }
    while (stack.size() > common) {
      out += '}';
      stack.pop_back();
    }
    for (std::size_t i = common; i + 1 < parts.size(); ++i) {
      if (out.back() != '{') out += ',';
      out += '"';
      out += parts[i];
      out += "\":{";
      stack.push_back(parts[i]);
    }
    if (out.back() != '{') out += ',';
    out += '"';
    out += parts.back();
    out += "\":";
    double v = sums[path];
    if (weight_path(path) != nullptr) {
      const double w = sums[weight_path(path)];
      v = w == 0.0 ? 0.0 : weighted[path] / w;
    }
    append_number(out, v);
  }
  while (!stack.empty()) {
    out += '}';
    stack.pop_back();
  }
  out += '}';
  return out;
}

}  // namespace geovalid::cluster
