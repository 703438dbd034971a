// The serve wire protocol speaks the project's one JSON codec; the alias
// keeps the protocol code spelled in its own namespace.
#pragma once

#include "util/json.hpp"

namespace f3d::serve {

using Json = llp::Json;

}  // namespace f3d::serve
