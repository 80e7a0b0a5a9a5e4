"""Experiment harness: configs, scripted runs, sweeps, certification, I/O."""

from . import certify, config, experiment, io, sweeps
from .certify import *
from .config import *
from .experiment import *
from .io import *
from .sweeps import *

__all__ = certify.__all__ + config.__all__ + experiment.__all__ + io.__all__ + sweeps.__all__
