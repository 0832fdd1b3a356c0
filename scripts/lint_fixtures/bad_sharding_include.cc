// Negative fixture for the sharding-include check: the splitter's
// header included outside src/xml/ and src/replica/, plus the nearby
// shapes that must NOT fire. Posed as a src/ file by
// check_source_test.py; posed under src/xml/ or src/replica/, every
// include is sanctioned.

#include "xml/sharding.h"  // MUST be flagged
#  include "xml/sharding.h"  // MUST be flagged

// Other headers of the same layer stay silent.
#include "xml/digest.h"
#include "xml/tree.h"
#include "replica/replica_manager.h"

// A comment that names it stays silent: #include "xml/sharding.h"
/*
#include "xml/sharding.h"
*/

// The waiver works on the line or the line above.
// lint: allow-sharding-include
#include "xml/sharding.h"

namespace axml {

const char* Note() { return "#include \"xml/sharding.h\""; }

}  // namespace axml
