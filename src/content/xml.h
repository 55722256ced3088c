#pragma once

/// \file xml.h
/// Minimal XML parser for game content files. The tutorial's data-driven
/// design section: "World of Warcraft contains an XML specification
/// language that allows players to define the look of their user
/// interface". This dialect covers what content files need — elements,
/// attributes, text, comments, self-closing tags, the five standard
/// entities — and nothing else (no DTD/namespaces/processing instructions).

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace gamedb::content {

/// Deepest element nesting ParseXml accepts: the root element is at depth
/// 1, an element at depth `kMaxXmlDepth` parses, and one level deeper is a
/// ParseError. Bounds the parser's recursion (and the tree's) on hostile
/// input; content files nest far less.
inline constexpr int kMaxXmlDepth = 256;

/// One element of the parsed tree.
struct XmlNode {
  std::string name;
  std::vector<std::pair<std::string, std::string>> attributes;
  std::vector<std::unique_ptr<XmlNode>> children;
  /// Concatenated character data directly inside this element (trimmed).
  std::string text;
  int line = 0;

  /// Attribute value, or nullptr.
  const std::string* FindAttribute(std::string_view name) const;
  /// Attribute with a default.
  std::string AttributeOr(std::string_view name,
                          std::string_view fallback) const;
  /// Typed attribute readers; error when missing or malformed.
  Result<double> NumberAttribute(std::string_view name) const;
  Result<int64_t> IntAttribute(std::string_view name) const;
  Result<bool> BoolAttribute(std::string_view name) const;

  /// First child with the given element name, or nullptr.
  const XmlNode* FirstChild(std::string_view name) const;
  /// All children with the given element name.
  std::vector<const XmlNode*> Children(std::string_view name) const;
};

/// Parses a document; returns its single root element.
Result<std::unique_ptr<XmlNode>> ParseXml(std::string_view source);

}  // namespace gamedb::content
