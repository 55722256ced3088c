#include "content/xml.h"

#include <cctype>

#include "common/string_util.h"

namespace gamedb::content {

const std::string* XmlNode::FindAttribute(std::string_view name) const {
  for (const auto& [k, v] : attributes) {
    if (k == name) return &v;
  }
  return nullptr;
}

std::string XmlNode::AttributeOr(std::string_view name,
                                 std::string_view fallback) const {
  const std::string* v = FindAttribute(name);
  return v != nullptr ? *v : std::string(fallback);
}

Result<double> XmlNode::NumberAttribute(std::string_view attr) const {
  const std::string* v = FindAttribute(attr);
  if (v == nullptr) {
    return Status::NotFound("<" + name + "> missing attribute '" +
                            std::string(attr) + "'");
  }
  double out = 0;
  if (!ParseDouble(*v, &out)) {
    return Status::ParseError("<" + name + "> attribute '" +
                              std::string(attr) + "' is not a number: " + *v);
  }
  return out;
}

Result<int64_t> XmlNode::IntAttribute(std::string_view attr) const {
  const std::string* v = FindAttribute(attr);
  if (v == nullptr) {
    return Status::NotFound("<" + name + "> missing attribute '" +
                            std::string(attr) + "'");
  }
  int64_t out = 0;
  if (!ParseInt64(*v, &out)) {
    return Status::ParseError("<" + name + "> attribute '" +
                              std::string(attr) + "' is not an integer: " + *v);
  }
  return out;
}

Result<bool> XmlNode::BoolAttribute(std::string_view attr) const {
  const std::string* v = FindAttribute(attr);
  if (v == nullptr) {
    return Status::NotFound("<" + name + "> missing attribute '" +
                            std::string(attr) + "'");
  }
  std::string lower = ToLower(*v);
  if (lower == "true" || lower == "1") return true;
  if (lower == "false" || lower == "0") return false;
  return Status::ParseError("<" + name + "> attribute '" + std::string(attr) +
                            "' is not a bool: " + *v);
}

const XmlNode* XmlNode::FirstChild(std::string_view child_name) const {
  for (const auto& c : children) {
    if (c->name == child_name) return c.get();
  }
  return nullptr;
}

std::vector<const XmlNode*> XmlNode::Children(std::string_view child_name) const {
  std::vector<const XmlNode*> out;
  for (const auto& c : children) {
    if (c->name == child_name) out.push_back(c.get());
  }
  return out;
}

namespace {

class XmlParser {
 public:
  explicit XmlParser(std::string_view src) : src_(src) {}

  Result<std::unique_ptr<XmlNode>> Run() {
    SkipProlog();
    GAMEDB_ASSIGN_OR_RETURN(auto root, ParseElement(/*depth=*/1));
    SkipWhitespaceAndComments();
    if (pos_ < src_.size()) {
      return Err("trailing content after root element");
    }
    return root;
  }

 private:
  Status Err(const std::string& msg) const {
    return Status::ParseError(StringFormat("line %d: %s", line_, msg.c_str()));
  }

  char Peek() const { return pos_ < src_.size() ? src_[pos_] : '\0'; }
  char Get() {
    char c = src_[pos_++];
    if (c == '\n') ++line_;
    return c;
  }
  bool Eof() const { return pos_ >= src_.size(); }

  void SkipWhitespace() {
    while (!Eof() && std::isspace(static_cast<unsigned char>(Peek()))) Get();
  }

  bool TrySkipComment() {
    if (src_.substr(pos_, 4) != "<!--") return false;
    pos_ += 4;
    size_t end = src_.find("-->", pos_);
    if (end == std::string_view::npos) {
      pos_ = src_.size();
      return true;
    }
    for (size_t i = pos_; i < end; ++i) {
      if (src_[i] == '\n') ++line_;
    }
    pos_ = end + 3;
    return true;
  }

  void SkipWhitespaceAndComments() {
    while (true) {
      SkipWhitespace();
      if (!TrySkipComment()) return;
    }
  }

  void SkipProlog() {
    SkipWhitespaceAndComments();
    if (src_.substr(pos_, 5) == "<?xml") {
      size_t end = src_.find("?>", pos_);
      pos_ = end == std::string_view::npos ? src_.size() : end + 2;
    }
    SkipWhitespaceAndComments();
  }

  static bool IsNameChar(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '-' || c == ':' || c == '.';
  }

  Result<std::string> ParseName() {
    std::string name;
    while (!Eof() && IsNameChar(Peek())) name.push_back(Get());
    if (name.empty()) return Err("expected a name");
    return name;
  }

  Result<std::string> DecodeEntities(std::string_view raw) {
    std::string out;
    for (size_t i = 0; i < raw.size();) {
      if (raw[i] != '&') {
        out.push_back(raw[i++]);
        continue;
      }
      size_t semi = raw.find(';', i);
      if (semi == std::string_view::npos) return Err("unterminated entity");
      std::string_view entity = raw.substr(i + 1, semi - i - 1);
      if (entity == "lt") {
        out.push_back('<');
      } else if (entity == "gt") {
        out.push_back('>');
      } else if (entity == "amp") {
        out.push_back('&');
      } else if (entity == "quot") {
        out.push_back('"');
      } else if (entity == "apos") {
        out.push_back('\'');
      } else {
        return Err("unknown entity '&" + std::string(entity) + ";'");
      }
      i = semi + 1;
    }
    return out;
  }

  Result<std::unique_ptr<XmlNode>> ParseElement(int depth) {
    if (depth > kMaxXmlDepth) {
      return Err(StringFormat("elements nested deeper than %d levels",
                              kMaxXmlDepth));
    }
    if (Peek() != '<') return Err("expected '<'");
    Get();
    auto node = std::make_unique<XmlNode>();
    node->line = line_;
    GAMEDB_ASSIGN_OR_RETURN(node->name, ParseName());

    // Attributes.
    while (true) {
      SkipWhitespace();
      if (Eof()) return Err("unterminated tag <" + node->name + ">");
      if (Peek() == '/' || Peek() == '>') break;
      GAMEDB_ASSIGN_OR_RETURN(std::string attr_name, ParseName());
      SkipWhitespace();
      if (Peek() != '=') return Err("expected '=' after attribute name");
      Get();
      SkipWhitespace();
      char quote = Peek();
      if (quote != '"' && quote != '\'') {
        return Err("attribute value must be quoted");
      }
      Get();
      std::string raw;
      while (!Eof() && Peek() != quote) raw.push_back(Get());
      if (Eof()) return Err("unterminated attribute value");
      Get();  // closing quote
      GAMEDB_ASSIGN_OR_RETURN(std::string value, DecodeEntities(raw));
      for (const auto& [k, v] : node->attributes) {
        if (k == attr_name) {
          return Err("duplicate attribute '" + attr_name + "'");
        }
      }
      node->attributes.emplace_back(std::move(attr_name), std::move(value));
    }

    if (Peek() == '/') {
      Get();
      if (Peek() != '>') return Err("expected '>' after '/'");
      Get();
      return node;  // self-closing
    }
    Get();  // '>'

    // Content: children and text until </name>.
    std::string text;
    while (true) {
      if (Eof()) return Err("unterminated element <" + node->name + ">");
      if (Peek() == '<') {
        if (TrySkipComment()) continue;
        if (src_.substr(pos_, 2) == "</") {
          pos_ += 2;
          GAMEDB_ASSIGN_OR_RETURN(std::string closing, ParseName());
          if (closing != node->name) {
            return Err("mismatched close tag: expected </" + node->name +
                       ">, got </" + closing + ">");
          }
          SkipWhitespace();
          if (Peek() != '>') return Err("expected '>' in close tag");
          Get();
          GAMEDB_ASSIGN_OR_RETURN(std::string decoded, DecodeEntities(text));
          node->text = std::string(Trim(decoded));
          return node;
        }
        GAMEDB_ASSIGN_OR_RETURN(auto child, ParseElement(depth + 1));
        node->children.push_back(std::move(child));
      } else {
        text.push_back(Get());
      }
    }
  }

  std::string_view src_;
  size_t pos_ = 0;
  int line_ = 1;
};

}  // namespace

Result<std::unique_ptr<XmlNode>> ParseXml(std::string_view source) {
  XmlParser parser(source);
  return parser.Run();
}

}  // namespace gamedb::content
