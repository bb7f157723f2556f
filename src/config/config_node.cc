#include "config/config_node.hh"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <fstream>
#include <sstream>

#include "core/contracts.hh"

namespace polca::config {

std::string
SourceLoc::str() const
{
    if (file.empty())
        return "<unknown>";
    if (line == 0)
        return file;  // synthetic sources ("--set x=y") have no line
    return file + ":" + std::to_string(line);
}

void
Diagnostics::error(const SourceLoc &loc, const std::string &msg)
{
    errors_.push_back(loc.str() + ": " + msg);
}

void
Diagnostics::error(const std::string &msg)
{
    errors_.push_back(msg);
}

std::string
Diagnostics::str() const
{
    std::string out;
    for (const std::string &e : errors_) {
        if (!out.empty())
            out += '\n';
        out += e;
    }
    return out;
}

bool
ConfigNode::has(const std::string &key) const
{
    return find(key) != nullptr;
}

const ConfigNode *
ConfigNode::find(const std::string &key) const
{
    for (const auto &[k, v] : entries) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

ConfigNode *
ConfigNode::find(const std::string &key)
{
    for (auto &[k, v] : entries) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

const ConfigNode *
ConfigNode::findPath(const std::string &dotted) const
{
    const ConfigNode *node = this;
    std::size_t pos = 0;
    while (pos <= dotted.size()) {
        std::size_t dot = dotted.find('.', pos);
        std::string segment = dotted.substr(
            pos, dot == std::string::npos ? std::string::npos
                                          : dot - pos);
        if (node->kind != Kind::Section)
            return nullptr;
        node = node->find(segment);
        if (!node)
            return nullptr;
        if (dot == std::string::npos)
            return node;
        pos = dot + 1;
    }
    return nullptr;
}

ConfigNode &
ConfigNode::obtainSection(const std::string &key)
{
    if (ConfigNode *existing = find(key)) {
        POLCA_CHECK(existing->kind == Kind::Section,
                    "obtainSection('", key,
                    "') found a non-section node (from ",
                    existing->loc.str(), ")");
        return *existing;
    }
    ConfigNode section;
    section.kind = Kind::Section;
    entries.emplace_back(key, std::move(section));
    return entries.back().second;
}

void
ConfigNode::set(const std::string &key, ConfigNode node)
{
    // Tree-shape contract: each kind uses exactly its own payload
    // field, so a malformed node cannot enter the tree and surface
    // later as a confusing parse/bind error.
    POLCA_DCHECK(node.kind != Kind::Scalar ||
                     (node.items.empty() && node.entries.empty()),
                 "scalar node '", key, "' carries children");
    POLCA_DCHECK(node.kind != Kind::Section || node.raw.empty(),
                 "section node '", key, "' carries a raw value");
    POLCA_DCHECK(node.kind != Kind::List || node.entries.empty(),
                 "list node '", key, "' carries section entries");
    if (ConfigNode *existing = find(key)) {
        *existing = std::move(node);
        return;
    }
    entries.emplace_back(key, std::move(node));
}

bool
ConfigNode::setPath(const std::string &dotted, ConfigNode scalar,
                    Diagnostics &diag)
{
    ConfigNode *node = this;
    std::size_t pos = 0;
    while (true) {
        std::size_t dot = dotted.find('.', pos);
        if (dot == std::string::npos) {
            std::string key = dotted.substr(pos);
            if (key.empty()) {
                diag.error(scalar.loc,
                           "empty path segment in '" + dotted + "'");
                return false;
            }
            ConfigNode *existing = node->find(key);
            if (existing && existing->kind == Kind::Section) {
                diag.error(scalar.loc, "'" + dotted +
                           "' names a section, not a value");
                return false;
            }
            node->set(key, std::move(scalar));
            return true;
        }
        std::string segment = dotted.substr(pos, dot - pos);
        if (segment.empty()) {
            diag.error(scalar.loc,
                       "empty path segment in '" + dotted + "'");
            return false;
        }
        ConfigNode *child = node->find(segment);
        if (child && child->kind != Kind::Section) {
            diag.error(scalar.loc, "'" + dotted + "': segment '" +
                       segment + "' is not a section");
            return false;
        }
        node = &node->obtainSection(segment);
        pos = dot + 1;
    }
}

std::vector<std::string>
ConfigNode::keys() const
{
    std::vector<std::string> out;
    out.reserve(entries.size());
    for (const auto &[k, v] : entries)
        out.push_back(k);
    return out;
}

ConfigNode
makeScalar(std::string raw, std::string origin, SourceLoc loc)
{
    ConfigNode node;
    node.kind = ConfigNode::Kind::Scalar;
    node.raw = std::move(raw);
    node.origin = std::move(origin);
    node.loc = std::move(loc);
    return node;
}

std::string
quoteString(const std::string &value)
{
    std::string out = "\"";
    for (char c : value) {
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
          case '\t':
            out += "\\t";
            break;
          default:
            out += c;
        }
    }
    out += '"';
    return out;
}

namespace {

std::string
trim(const std::string &s)
{
    std::size_t begin = s.find_first_not_of(" \t\r");
    if (begin == std::string::npos)
        return "";
    std::size_t end = s.find_last_not_of(" \t\r");
    return s.substr(begin, end - begin + 1);
}

/** Strip an unquoted '#' comment from a line. */
std::string
stripComment(const std::string &line)
{
    bool inString = false;
    for (std::size_t i = 0; i < line.size(); ++i) {
        char c = line[i];
        if (c == '\\' && inString) {
            ++i;
            continue;
        }
        if (c == '"')
            inString = !inString;
        else if (c == '#' && !inString)
            return line.substr(0, i);
    }
    return line;
}

bool
isIntegerToken(const std::string &s)
{
    if (s.empty())
        return false;
    std::size_t i = (s[0] == '-' || s[0] == '+') ? 1 : 0;
    if (i == s.size())
        return false;
    for (; i < s.size(); ++i) {
        if (!std::isdigit(static_cast<unsigned char>(s[i])))
            return false;
    }
    return true;
}

/** Split a single-line list body on top-level commas. */
std::vector<std::string>
splitListBody(const std::string &body)
{
    std::vector<std::string> parts;
    std::string current;
    bool inString = false;
    for (std::size_t i = 0; i < body.size(); ++i) {
        char c = body[i];
        if (c == '\\' && inString && i + 1 < body.size()) {
            current += c;
            current += body[++i];
            continue;
        }
        if (c == '"')
            inString = !inString;
        if (c == ',' && !inString) {
            parts.push_back(current);
            current.clear();
            continue;
        }
        current += c;
    }
    parts.push_back(current);
    return parts;
}

struct Parser
{
    std::string filename;
    Diagnostics &diag;

    SourceLoc
    at(int line) const
    {
        return SourceLoc{filename, line};
    }

    std::string
    originAt(int line) const
    {
        return filename + ":" + std::to_string(line);
    }

    /** Parse one value token (scalar, quoted string, or list). */
    bool
    parseValue(const std::string &text, int line, ConfigNode &out)
    {
        std::string value = trim(text);
        if (value.empty()) {
            diag.error(at(line), "missing value");
            return false;
        }

        if (value.front() == '[') {
            if (value.back() != ']') {
                diag.error(at(line), "unterminated list '" + value +
                           "' (lists are single-line)");
                return false;
            }
            ConfigNode list;
            list.kind = ConfigNode::Kind::List;
            list.loc = at(line);
            list.origin = originAt(line);
            std::string body =
                trim(value.substr(1, value.size() - 2));
            if (body.empty()) {
                out = std::move(list);
                return true;
            }
            for (const std::string &part : splitListBody(body)) {
                std::string element = trim(part);
                if (element.empty()) {
                    diag.error(at(line), "empty list element");
                    return false;
                }
                // lo..hi inclusive integer range.
                std::size_t dots = element.find("..");
                if (dots != std::string::npos &&
                    element.front() != '"') {
                    std::string lo = trim(element.substr(0, dots));
                    std::string hi = trim(element.substr(dots + 2));
                    if (!isIntegerToken(lo) || !isIntegerToken(hi)) {
                        diag.error(at(line), "bad range '" + element +
                                   "' (expected <int>..<int>)");
                        return false;
                    }
                    long long a = std::stoll(lo), b = std::stoll(hi);
                    if (b < a || b - a > 100000) {
                        diag.error(at(line), "range '" + element +
                                   "' is empty or too large");
                        return false;
                    }
                    for (long long v = a; v <= b; ++v) {
                        list.items.push_back(makeScalar(
                            std::to_string(v), originAt(line),
                            at(line)));
                    }
                    continue;
                }
                ConfigNode elementNode;
                if (!parseValue(element, line, elementNode))
                    return false;
                if (elementNode.kind == ConfigNode::Kind::List) {
                    diag.error(at(line), "nested lists are not "
                               "supported");
                    return false;
                }
                list.items.push_back(std::move(elementNode));
            }
            out = std::move(list);
            return true;
        }

        if (value.front() == '"') {
            // Validate the quoted string and keep it raw.
            bool closed = false;
            for (std::size_t i = 1; i < value.size(); ++i) {
                if (value[i] == '\\') {
                    ++i;
                    continue;
                }
                if (value[i] == '"') {
                    closed = i == value.size() - 1;
                    break;
                }
            }
            if (!closed) {
                diag.error(at(line), "unterminated or malformed "
                           "string " + value);
                return false;
            }
            out = makeScalar(value, originAt(line), at(line));
            return true;
        }

        out = makeScalar(value, originAt(line), at(line));
        return true;
    }

    ConfigNode
    parse(std::istream &in)
    {
        ConfigNode root;
        root.kind = ConfigNode::Kind::Section;
        root.loc = at(0);

        ConfigNode *current = &root;
        std::string currentHeader;
        std::vector<std::string> seenHeaders;

        std::string rawLine;
        int lineNo = 0;
        while (std::getline(in, rawLine)) {
            ++lineNo;
            std::string line = trim(stripComment(rawLine));
            if (line.empty())
                continue;

            if (line.front() == '[') {
                bool isArray = line.rfind("[[", 0) == 0;
                std::string close = isArray ? "]]" : "]";
                if (line.size() < close.size() + 2 ||
                    line.compare(line.size() - close.size(),
                                 close.size(), close) != 0) {
                    diag.error(at(lineNo), "malformed section header '"
                               + line + "'");
                    continue;
                }
                std::string path = trim(line.substr(
                    isArray ? 2 : 1,
                    line.size() - 2 * (isArray ? 2 : 1)));
                if (path.empty()) {
                    diag.error(at(lineNo), "empty section header");
                    continue;
                }

                // Walk/create the dotted path.
                ConfigNode *node = &root;
                bool bad = false;
                std::size_t pos = 0;
                std::string walked;
                while (!bad) {
                    std::size_t dot = path.find('.', pos);
                    std::string segment = path.substr(
                        pos, dot == std::string::npos
                                 ? std::string::npos
                                 : dot - pos);
                    if (segment.empty()) {
                        diag.error(at(lineNo),
                                   "empty segment in section header '"
                                   + path + "'");
                        bad = true;
                        break;
                    }
                    walked += (walked.empty() ? "" : ".") + segment;
                    bool last = dot == std::string::npos;
                    ConfigNode *child = node->find(segment);
                    if (last && isArray) {
                        if (child &&
                            child->kind != ConfigNode::Kind::List) {
                            diag.error(at(lineNo), "'" + walked +
                                       "' already defined as a "
                                       "non-list at " +
                                       child->loc.str());
                            bad = true;
                            break;
                        }
                        if (!child) {
                            ConfigNode list;
                            list.kind = ConfigNode::Kind::List;
                            list.loc = at(lineNo);
                            list.origin = originAt(lineNo);
                            node->set(segment, std::move(list));
                            child = node->find(segment);
                        }
                        ConfigNode element;
                        element.kind = ConfigNode::Kind::Section;
                        element.loc = at(lineNo);
                        element.origin = originAt(lineNo);
                        child->items.push_back(std::move(element));
                        node = &child->items.back();
                        break;
                    }
                    if (child &&
                        child->kind != ConfigNode::Kind::Section) {
                        diag.error(at(lineNo), "'" + walked +
                                   "' already defined as a value at " +
                                   child->loc.str());
                        bad = true;
                        break;
                    }
                    if (!child) {
                        ConfigNode section;
                        section.kind = ConfigNode::Kind::Section;
                        section.loc = at(lineNo);
                        section.origin = originAt(lineNo);
                        node->set(segment, std::move(section));
                        child = node->find(segment);
                    }
                    node = child;
                    if (last)
                        break;
                    pos = dot + 1;
                }
                if (bad)
                    continue;

                if (!isArray) {
                    if (std::find(seenHeaders.begin(),
                                  seenHeaders.end(), path) !=
                        seenHeaders.end()) {
                        diag.error(at(lineNo), "duplicate section [" +
                                   path + "]");
                        continue;
                    }
                    seenHeaders.push_back(path);
                }
                current = node;
                currentHeader = path;
                continue;
            }

            std::size_t eq = line.find('=');
            if (eq == std::string::npos) {
                diag.error(at(lineNo), "expected 'key = value', got '" +
                           line + "'");
                continue;
            }
            std::string key = trim(line.substr(0, eq));
            if (!key.empty() && key.front() == '"' &&
                key.back() == '"' && key.size() >= 2) {
                key = key.substr(1, key.size() - 2);
            }
            if (key.empty()) {
                diag.error(at(lineNo), "missing key before '='");
                continue;
            }
            if (const ConfigNode *existing = current->find(key)) {
                diag.error(at(lineNo), "duplicate key '" + key +
                           "' (first defined at " +
                           existing->loc.str() + ")");
                continue;
            }
            ConfigNode value;
            if (!parseValue(line.substr(eq + 1), lineNo, value))
                continue;
            current->set(key, std::move(value));
        }
        return root;
    }
};

} // namespace

ConfigNode
parseConfigString(const std::string &text, const std::string &filename,
                  Diagnostics &diag)
{
    std::istringstream in(text);
    Parser parser{filename, diag};
    return parser.parse(in);
}

ConfigNode
parseConfigFile(const std::string &path, Diagnostics &diag)
{
    std::ifstream in(path);
    if (!in) {
        diag.error("cannot open scenario file '" + path + "'");
        ConfigNode empty;
        empty.kind = ConfigNode::Kind::Section;
        return empty;
    }
    Parser parser{path, diag};
    return parser.parse(in);
}

std::string
nearestKey(const std::string &key,
           const std::vector<std::string> &candidates)
{
    // Classic Levenshtein distance; inputs are short flag/key names.
    auto distance = [](const std::string &a, const std::string &b) {
        std::vector<std::size_t> prev(b.size() + 1), cur(b.size() + 1);
        for (std::size_t j = 0; j <= b.size(); ++j)
            prev[j] = j;
        for (std::size_t i = 1; i <= a.size(); ++i) {
            cur[0] = i;
            for (std::size_t j = 1; j <= b.size(); ++j) {
                std::size_t sub =
                    prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
                cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
            }
            std::swap(prev, cur);
        }
        return prev[b.size()];
    };

    std::string best;
    std::size_t bestDistance = std::max<std::size_t>(
        2, key.size() / 2);
    for (const std::string &candidate : candidates) {
        std::size_t d = distance(key, candidate);
        if (d <= bestDistance && d > 0) {
            bestDistance = d;
            best = candidate;
        } else if (d == 0) {
            return candidate;
        }
    }
    return best;
}

std::string
didYouMean(const std::string &key,
           const std::vector<std::string> &candidates)
{
    std::string near = nearestKey(key, candidates);
    return near.empty() ? "" : " (did you mean '" + near + "'?)";
}

} // namespace polca::config
