// The paper's one lossy criterion (Section 3, footnote 2): IEEE 802.3
// requires a link to corrupt fewer than 1e-8 of its frames, and the
// paper deems a link lossy from that rate on.
#pragma once

namespace corropt::common {

// A direction or link corrupting (or losing) at this rate or above is
// lossy.
inline constexpr double kLossyThreshold = 1e-8;
// Rate below which a detector that deemed a link lossy declares it
// clean again: the hysteresis band keeps Poisson noise from flapping a
// link in and out of the corrupting set.
inline constexpr double kClearThreshold = 5e-9;

}  // namespace corropt::common
