#include "stream/schedule.h"

namespace setcover {

bool ScheduleSpec::Validate(std::string* error) const {
  if (passes == 0) {
    if (error != nullptr) *error = "schedule needs passes >= 1";
    return false;
  }
  if (window > 0 && replay_every == 0) {
    if (error != nullptr)
      *error = "windowed schedule needs replay_every >= 1";
    return false;
  }
  if (window == 0 && replay_every > 0) {
    if (error != nullptr)
      *error = "schedule sets replay_every without a window";
    return false;
  }
  return true;
}

}  // namespace setcover
