"""Catalogue of LSM hook names.

Mirrors (a subset of) ``include/linux/lsm_hook_defs.h``.  Modules implement
hooks as plain methods; this enum exists so the framework, the statistics
layer, and the tests can enumerate the hook surface without reflection
guesswork.
"""

from __future__ import annotations

import enum


class Hook(enum.Enum):
    """Hook identifiers, named after their Linux counterparts."""

    TASK_ALLOC = "task_alloc"
    BPRM_CHECK_SECURITY = "bprm_check_security"
    BPRM_COMMITTED_CREDS = "bprm_committed_creds"
    TASK_KILL = "task_kill"
    CAPABLE = "capable"
    INODE_CREATE = "inode_create"
    INODE_MKDIR = "inode_mkdir"
    INODE_MKNOD = "inode_mknod"
    INODE_UNLINK = "inode_unlink"
    INODE_RMDIR = "inode_rmdir"
    INODE_RENAME = "inode_rename"
    INODE_GETATTR = "inode_getattr"
    INODE_SETATTR = "inode_setattr"
    FILE_OPEN = "file_open"
    FILE_PERMISSION = "file_permission"
    FILE_IOCTL = "file_ioctl"
    MMAP_FILE = "mmap_file"
    SOCKET_CREATE = "socket_create"
    SOCKET_BIND = "socket_bind"
    SOCKET_LISTEN = "socket_listen"
    SOCKET_CONNECT = "socket_connect"
    SOCKET_ACCEPT = "socket_accept"
    SOCKET_SENDMSG = "socket_sendmsg"
    SOCKET_RECVMSG = "socket_recvmsg"

    # Members are singletons compared by identity, so identity is a valid
    # hash too; it keeps every dispatch-path plan probe and cache-key
    # lookup out of Enum's Python-level ``__hash__``.
    __hash__ = object.__hash__


#: Hooks that return an authorization decision (int); the rest are
#: notification-only (``void`` in Linux).
DECISION_HOOKS = frozenset(h for h in Hook
                           if h is not Hook.BPRM_COMMITTED_CREDS)

#: Hooks invoked on every file data access — the hot path the paper's
#: LMBench file benchmarks stress.
HOT_PATH_HOOKS = frozenset({Hook.FILE_PERMISSION, Hook.FILE_OPEN,
                            Hook.SOCKET_SENDMSG, Hook.SOCKET_RECVMSG})
