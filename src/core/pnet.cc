#include "src/core/pnet.h"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "src/common/loc.h"
#include "src/common/strings.h"
#include "src/perfscript/compile.h"

namespace perfiface {
namespace {

// Components nest at most this deep below the document that names the net.
constexpr int kMaxIncludeDepth = 8;

struct ArcSpec {
  std::string place;
  std::size_t weight = 1;
};

// One checked directive line. A `use` never stays in a parsed document:
// the component's directives, renamed, take its place.
struct Directive {
  enum class Kind : std::uint8_t { kNet, kConst, kAttr, kPlace, kTrans, kUse };
  Kind kind = Kind::kNet;
  std::uint32_t file = 0;  // index into PnetDocument::files
  int line = 0;
  std::string name;  // of the net, const, attr, place or transition; a use's file
  double value = 0;  // const
  int cap = 0;       // place
  int init = 0;
  std::vector<ArcSpec> in;  // trans
  std::vector<ArcSpec> out;
  std::string delay;
  std::optional<std::string> guard;
  int servers = 1;
  std::string prefix;  // use
  std::map<std::string, std::string> bind;
};

// A .pnet document parsed once, every `use` resolved: LoadPnet builds a net
// from it, CanonicalPnetText and ExpandPnetIncludes print it.
struct PnetDocument {
  std::vector<Directive> directives;
  // files[0] is the document itself, then each component a `use` read,
  // named as the `use` wrote it.
  std::vector<std::string> files{""};

  // Where an error is: "line N" in the document, "<file> line N" in a
  // component.
  std::string Where(std::uint32_t file, int line) const {
    return files[file].empty() ? StrFormat("line %d", line)
                               : StrFormat("%s line %d", files[file].c_str(), line);
  }
};

// Splits a directive line into whitespace-separated words, keeping quoted
// strings (which may contain spaces) intact.
bool Tokenize(std::string_view line, std::vector<std::string_view>* words, std::string* error) {
  std::size_t i = 0;
  while (i < line.size()) {
    if (line[i] == ' ' || line[i] == '\t') {
      ++i;
      continue;
    }
    const std::size_t begin = i;
    bool in_quotes = false;
    while (i < line.size() && (in_quotes || (line[i] != ' ' && line[i] != '\t'))) {
      in_quotes ^= line[i] == '"';
      ++i;
    }
    if (in_quotes) {
      *error = "unterminated quote";
      return false;
    }
    words->push_back(line.substr(begin, i - begin));
  }
  return true;
}

std::string_view Unquote(std::string_view value) {
  return value.size() >= 2 && value.front() == '"' && value.back() == '"'
             ? value.substr(1, value.size() - 2)
             : value;
}

// Reads key=value words: the value of each key named in `keys` lands in
// its slot (the last one wins, one pair of surrounding quotes dropped);
// other keys are ignored.
bool ReadOptions(
    std::span<const std::string_view> words,
    std::initializer_list<std::pair<std::string_view, std::optional<std::string_view>*>> keys,
    std::string* error) {
  for (const std::string_view word : words) {
    const std::size_t eq = word.find('=');
    if (eq == std::string_view::npos) {
      *error = StrFormat("expected key=value, got '%s'", std::string(word).c_str());
      return false;
    }
    for (const auto& [key, slot] : keys) {
      if (word.substr(0, eq) == key) {
        *slot = Unquote(word.substr(eq + 1));
      }
    }
  }
  return true;
}

// Count option `key`, `fallback` when absent: decimal digits only, from
// `min` to INT_MAX.
bool ReadCount(std::optional<std::string_view> text, const char* key, int fallback, int min,
               int* out, std::string* error) {
  *out = fallback;
  if (!text.has_value()) {
    return true;
  }
  unsigned value = 0;
  const char* end = text->data() + text->size();
  const auto [ptr, ec] = std::from_chars(text->data(), end, value);
  if (ec == std::errc() && ptr == end && value >= static_cast<unsigned>(min) &&
      value <= static_cast<unsigned>(std::numeric_limits<int>::max())) {
    *out = static_cast<int>(value);
    return true;
  }
  *error = StrFormat("bad %s '%s' (expected a count from %d to %d)", key,
                     std::string(*text).c_str(), min, std::numeric_limits<int>::max());
  return false;
}

bool ParseArcs(std::string_view list, std::vector<ArcSpec>* out, std::string* error) {
  for (const std::string& part : SplitString(list, ',')) {
    if (part.empty()) {
      *error = "empty arc entry";
      return false;
    }
    const auto colon = part.find(':');
    ArcSpec arc{part.substr(0, colon)};
    if (colon != std::string::npos) {
      int w = 0;
      if (!ReadCount(std::string_view(part).substr(colon + 1), "weight", 1, 1, &w, error)) {
        *error = StrFormat("bad arc weight in '%s'", part.c_str());
        return false;
      }
      arc.weight = static_cast<std::size_t>(w);
    }
    out->push_back(std::move(arc));
  }
  return true;
}

// Splits and checks one directive line (neither blank nor a comment): all
// that a line can get wrong on its own. What needs the whole net (unknown
// and duplicate places, the expressions) is checked by BuildNet.
bool ParseDirective(std::string_view line, Directive* d, std::string* error) {
  std::vector<std::string_view> words;
  if (!Tokenize(line, &words, error)) {
    return false;
  }
  const std::string_view directive = words[0];
  const std::span<const std::string_view> options =
      std::span<const std::string_view>(words).subspan(std::min<std::size_t>(2, words.size()));
  auto fail = [error](std::string message) {
    *error = std::move(message);
    return false;
  };
  if (directive == "net" || directive == "attr") {
    if (words.size() != 2) {
      return fail(std::string(directive) + " takes exactly one name");
    }
    d->kind = directive == "net" ? Directive::Kind::kNet : Directive::Kind::kAttr;
  } else if (directive == "const") {
    if (words.size() != 3) {
      return fail("const takes a name and a value");
    }
    if (ParseDecimal(words[2], &d->value) != std::errc()) {
      return fail(StrFormat("bad const value '%s' (expected a decimal number)",
                            std::string(words[2]).c_str()));
    }
    d->kind = Directive::Kind::kConst;
  } else if (directive == "place") {
    if (words.size() < 2) {
      return fail("place needs a name");
    }
    std::optional<std::string_view> cap, init;
    if (!ReadOptions(options, {{"cap", &cap}, {"init", &init}}, error) ||
        !ReadCount(cap, "cap", 0, 0, &d->cap, error) ||
        !ReadCount(init, "init", 0, 0, &d->init, error)) {
      return false;
    }
    if (d->cap > 0 && d->init > d->cap) {
      return fail(StrFormat("init=%d exceeds cap=%d", d->init, d->cap));
    }
    d->kind = Directive::Kind::kPlace;
  } else if (directive == "trans") {
    if (words.size() < 2) {
      return fail("trans needs a name");
    }
    std::optional<std::string_view> in, out, delay, guard, servers;
    if (!ReadOptions(options,
                     {{"in", &in}, {"out", &out}, {"delay", &delay}, {"guard", &guard},
                      {"servers", &servers}},
                     error)) {
      return false;
    }
    if (!in.has_value() || !delay.has_value()) {
      return fail("trans requires in= and delay=");
    }
    if (!ParseArcs(*in, &d->in, error) || (out.has_value() && !ParseArcs(*out, &d->out, error)) ||
        !ReadCount(servers, "servers", 1, 1, &d->servers, error)) {
      return false;
    }
    d->kind = Directive::Kind::kTrans;
    d->delay = *delay;
    if (guard.has_value()) {
      d->guard.emplace(*guard);
    }
  } else if (directive == "use") {
    if (words.size() < 3) {
      return fail("use \"file\" prefix=<p> [bind=\"a=b,...\"]");
    }
    std::optional<std::string_view> prefix, bind;
    if (!ReadOptions(options, {{"prefix", &prefix}, {"bind", &bind}}, error)) {
      return false;
    }
    if (!prefix.has_value() || prefix->empty()) {
      return fail("use requires prefix=");
    }
    for (const std::string& entry : bind.has_value() ? SplitString(*bind, ',')
                                                     : std::vector<std::string>()) {
      const std::string_view trimmed = StripWhitespace(entry);
      const auto eq = trimmed.find('=');
      if (eq == std::string_view::npos || eq == 0 || eq + 1 == trimmed.size()) {
        return fail(StrFormat("bad bind entry '%s'", std::string(trimmed).c_str()));
      }
      d->bind[std::string(trimmed.substr(0, eq))] = std::string(trimmed.substr(eq + 1));
    }
    d->kind = Directive::Kind::kUse;
    d->prefix = *prefix;
    d->name = Unquote(words[1]);
    return true;
  } else {
    return fail(StrFormat("unknown directive '%s'", std::string(directive).c_str()));
  }
  d->name = words[1];
  return true;
}

bool ParseDocument(std::string_view text, const std::string* include_dir, std::uint32_t file,
                   int depth, PnetDocument* doc, std::string* error);

// Resolves a `use`: reads the component beside the including file, parses
// it with the same reader, and leaves its directives, renamed, where the
// `use` stood. The including document names the net, and a place on the
// left of a bind= entry is fused with the including net's place on the
// right.
bool Include(const Directive& use, const std::string& include_dir, int depth,
             PnetDocument* doc, std::string* error) {
  const std::string path = include_dir + "/" + use.name;
  std::string text;
  if (depth == kMaxIncludeDepth || !ReadFile(path, &text, error)) {
    *error = doc->Where(use.file, use.line) + ": use: " +
             (depth == kMaxIncludeDepth ? "include depth limit exceeded" : *error);
    return false;
  }
  const std::size_t first = doc->directives.size();
  doc->files.push_back(use.name);
  const std::string component_dir = path.substr(0, path.find_last_of('/'));
  if (!ParseDocument(text, &component_dir, static_cast<std::uint32_t>(doc->files.size() - 1),
                     depth + 1, doc, error)) {
    return false;
  }
  const auto fused = [&use](const Directive& d) {
    return d.kind == Directive::Kind::kNet ||
           (d.kind == Directive::Kind::kPlace && use.bind.count(d.name) > 0);
  };
  doc->directives.erase(
      std::remove_if(doc->directives.begin() + first, doc->directives.end(), fused),
      doc->directives.end());
  const auto rename = [&use](std::string* name) {
    const auto bound = use.bind.find(*name);
    *name = bound != use.bind.end() ? bound->second : use.prefix + "_" + *name;
  };
  for (auto d = doc->directives.begin() + first; d != doc->directives.end(); ++d) {
    if (d->kind == Directive::Kind::kPlace || d->kind == Directive::Kind::kTrans) {
      d->name = use.prefix + "_" + d->name;
    }
    for (ArcSpec& arc : d->in) rename(&arc.place);
    for (ArcSpec& arc : d->out) rename(&arc.place);
  }
  return true;
}

// Parses `text` onto doc->directives, resolving each `use` against
// `include_dir` (none: `use` is an error). `file` indexes doc->files. The
// net-wide initial-token bound is checked at depth 0, where the net is
// whole (a fused component place adds none).
bool ParseDocument(std::string_view text, const std::string* include_dir, std::uint32_t file,
                   int depth, PnetDocument* doc, std::string* error) {
  std::int64_t initial_tokens = 0;
  int line_no = 0;
  for (std::size_t begin = 0; begin <= text.size();) {
    const std::size_t end = std::min(text.find('\n', begin), text.size());
    const std::string_view line = StripWhitespace(text.substr(begin, end - begin));
    begin = end + 1;
    ++line_no;
    if (line.empty() || line[0] == '#') {
      continue;
    }
    Directive d;
    d.file = file;
    d.line = line_no;
    if (!ParseDirective(line, &d, error)) {
      *error = doc->Where(file, line_no) + ": " + *error;
      return false;
    }
    const std::size_t first = doc->directives.size();
    if (d.kind != Directive::Kind::kUse) {
      doc->directives.push_back(std::move(d));
    } else if (include_dir == nullptr) {
      *error = doc->Where(file, line_no) +
               ": use needs the including file's directory (LoadPnetFile, ExpandPnetIncludes)";
      return false;
    } else if (!Include(d, *include_dir, depth, doc, error)) {
      return false;
    }
    for (std::size_t i = first; depth == 0 && i < doc->directives.size(); ++i) {
      const Directive& place = doc->directives[i];
      if (place.kind == Directive::Kind::kPlace &&
          (initial_tokens += place.init) > kMaxInjectedTokens) {
        *error = doc->Where(place.file, place.line) +
                 StrFormat(": more than %lld initial tokens in the net",
                           static_cast<long long>(kMaxInjectedTokens));
        return false;
      }
    }
  }
  return true;
}

// Adds a place or a transition to `net`: a place's name is new, arcs
// resolve by place name, and the delay and guard compile against the attrs
// and consts declared above them.
bool AddToNet(const Directive& d, const std::map<std::string, double>& consts, PetriNet* net,
              std::string* error) {
  if (d.kind == Directive::Kind::kPlace) {
    if (net->HasPlace(d.name)) {
      *error = StrFormat("duplicate place '%s'", d.name.c_str());
      return false;
    }
    net->AddPlace(d.name, static_cast<std::size_t>(d.cap), static_cast<std::size_t>(d.init));
    return true;
  }
  TransitionSpec spec;
  spec.name = d.name;
  for (const auto& [arcs, resolved] :
       {std::pair{&d.in, &spec.inputs}, std::pair{&d.out, &spec.outputs}}) {
    for (const ArcSpec& a : *arcs) {
      if (!net->HasPlace(a.place)) {
        *error = StrFormat("unknown place '%s'", a.place.c_str());
        return false;
      }
      resolved->push_back(Arc{net->PlaceByName(a.place), a.weight});
    }
  }
  spec.servers = static_cast<std::size_t>(d.servers);
  spec.delay_compiled = CompileNetExpr(d.delay, *net, consts, error);
  if (spec.delay_compiled == nullptr) {
    *error = "delay: " + *error;
    return false;
  }
  if (d.guard.has_value()) {
    spec.guard_compiled = CompileNetExpr(*d.guard, *net, consts, error);
    if (spec.guard_compiled == nullptr) {
      *error = "guard: " + *error;
      return false;
    }
  }
  net->AddTransition(std::move(spec));
  return true;
}

LoadedNet BuildNet(const PnetDocument& doc) {
  LoadedNet out;
  out.net = std::make_unique<PetriNet>();
  std::map<std::string, double> consts;
  for (const Directive& d : doc.directives) {
    std::string error;
    if (d.kind == Directive::Kind::kNet) {
      out.name = d.name;
    } else if (d.kind == Directive::Kind::kConst) {
      consts[d.name] = d.value;
    } else if (d.kind == Directive::Kind::kAttr) {
      out.net->RegisterAttr(d.name);
    } else if (!AddToNet(d, consts, out.net.get(), &error)) {
      out.error = doc.Where(d.file, d.line) + ": " + error;
      return out;
    }
  }
  if (out.name.empty()) {
    out.error = "missing 'net' declaration";
  }
  return out;
}

LoadedNet Load(std::string_view text, const std::string* include_dir) {
  PnetDocument doc;
  LoadedNet out;
  return ParseDocument(text, include_dir, 0, 0, &doc, &out.error) ? BuildNet(doc) : std::move(out);
}

// An option value as printed: quoted if `quote` (expressions), bare
// otherwise (arc lists), or in the other form if the preferred one would
// not read back as one word holding `value` -- an expression may hold
// quotes after a `#` comment, and a place name may begin and end with one.
std::string OptionText(std::string_view value, bool quote) {
  const std::string quoted = "\"" + std::string(value) + "\"";
  const std::string_view word = quote ? std::string_view(quoted) : value;
  std::vector<std::string_view> words;
  std::string error;
  if (Tokenize(word, &words, &error) && words.size() == 1 && words[0] == word &&
      Unquote(word) == value) {
    return std::string(word);
  }
  return quote ? std::string(value) : quoted;
}

std::string ArcList(const std::vector<ArcSpec>& arcs) {
  std::string out;
  for (const ArcSpec& a : arcs) {
    if (!out.empty()) {
      out += ',';
    }
    out += a.place;
    if (a.weight != 1) {
      out += StrFormat(":%zu", a.weight);
    }
  }
  return OptionText(out, false);
}

std::string PrintDocument(const PnetDocument& doc) {
  std::string out;
  for (const Directive& d : doc.directives) {
    if (d.kind == Directive::Kind::kNet || d.kind == Directive::Kind::kAttr) {
      out += (d.kind == Directive::Kind::kNet ? "net " : "attr ") + d.name;
    } else if (d.kind == Directive::Kind::kConst) {
      // %.17g survives a double round-trip exactly; integral values (the
      // common case for pnet constants) print without a decimal point.
      out += "const " + d.name + StrFormat(" %.17g", d.value);
    } else if (d.kind == Directive::Kind::kPlace) {
      out += "place " + d.name + (d.cap > 0 ? StrFormat(" cap=%d", d.cap) : "") +
             (d.init > 0 ? StrFormat(" init=%d", d.init) : "");
    } else {  // a transition: a `use` never stays in a parsed document
      out += "trans " + d.name + " in=" + ArcList(d.in) +
             (d.out.empty() ? "" : " out=" + ArcList(d.out)) +
             (d.guard.has_value() ? " guard=" + OptionText(*d.guard, true) : "") +
             " delay=" + OptionText(d.delay, true) +
             (d.servers > 1 ? StrFormat(" servers=%d", d.servers) : "");
    }
    out += '\n';
  }
  return out;
}

}  // namespace

std::shared_ptr<const CompiledExpr> CompileNetExpr(const std::string& source,
                                                   const PetriNet& net,
                                                   const std::map<std::string, double>& consts,
                                                   std::string* error) {
  return CompiledExpr::CompileSource(
      source,
      [&net, &consts](std::string_view name) -> std::optional<ExprBinding> {
        const auto it = consts.find(std::string(name));
        if (it != consts.end()) {
          return ExprBinding::Const(it->second);
        }
        const std::size_t slot = net.FindAttr(std::string(name));
        if (slot == PetriNet::kNoAttr) {
          return std::nullopt;
        }
        return ExprBinding::Slot(static_cast<std::uint32_t>(slot));
      },
      error);
}

LoadedNet LoadPnet(std::string_view text) { return Load(text, nullptr); }

LoadedNet LoadPnetFile(const std::string& path) {
  std::string text;
  LoadedNet out;
  const auto slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  return ReadFile(path, &text, &out.error) ? Load(text, &dir) : std::move(out);
}

PnetExpansion ExpandPnetIncludes(std::string_view text, const std::string& include_dir) {
  PnetExpansion out;
  PnetDocument doc;
  out.ok = ParseDocument(text, &include_dir, 0, 0, &doc, &out.error);
  out.text = out.ok ? PrintDocument(doc) : "";
  return out;
}

std::string CanonicalPnetText(std::string_view text, std::string* error) {
  PnetDocument doc;
  return ParseDocument(text, nullptr, 0, 0, &doc, error) ? PrintDocument(doc) : "";
}

}  // namespace perfiface
