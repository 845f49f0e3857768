"""Not exempt: seeding the global RNGs violates REP-DET here too."""
import random

import numpy as np


def seed_global_rngs(seed):
    random.seed(seed)
    np.random.seed(seed % (2**32))
