// A from-scratch XML parser producing axml trees.
//
// Supported fragment (sufficient for the AXML dialect and the paper's
// workloads): elements, attributes, character data with the five standard
// entities plus numeric character references, comments, processing
// instructions and the XML declaration (skipped), CDATA sections.
// Namespaces are treated lexically (prefix kept in the label). DTDs are
// not supported.
//
// Attributes are mapped into the unordered-tree model as children labeled
// '@<name>' holding a single text leaf; the serializer inverts the
// mapping, so parse ∘ serialize is the identity on the supported
// fragment.
//
// Whitespace-only text between elements is dropped ("boundary
// whitespace"); text inside mixed content is preserved.

#ifndef AXML_XML_XML_PARSER_H_
#define AXML_XML_XML_PARSER_H_

#include <string_view>

#include "common/status.h"
#include "xml/tree.h"

namespace axml {

/// Parses one XML element (with optional leading prolog/comments) from
/// `text`. Node ids are minted from `gen`.
Result<TreePtr> ParseXml(std::string_view text, NodeIdGen* gen);

}  // namespace axml

#endif  // AXML_XML_XML_PARSER_H_
