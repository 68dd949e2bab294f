#include "hwstar/common/timer.h"

// NowNanos and WallTimer are fully inline; this translation unit
// exists so the module has a home for future non-inline additions and to
// keep one .cc per header as the build convention.
