"""The repository's Hypothesis settings, loaded for every test: the same
examples on every run (``derandomize``), no example database written to
disk, and no per-example deadline, since exact arithmetic on a drawn
payload can take longer than the default allows.  A test sets only its
own ``max_examples``."""

from hypothesis import settings

settings.register_profile("parastrata", derandomize=True, database=None, deadline=None)
settings.load_profile("parastrata")
