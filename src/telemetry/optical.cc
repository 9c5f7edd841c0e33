#include "telemetry/optical.h"

namespace corropt::telemetry {

OpticalTech default_tech() { return OpticalTech{}; }

}  // namespace corropt::telemetry
